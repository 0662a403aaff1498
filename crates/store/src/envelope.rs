//! The checksummed JSON envelope shared by `store.json` and training
//! checkpoints:
//!
//! ```json
//! { "version": 1, "checksum": "<fnv1a64 hex>", "payload": "<payload JSON>" }
//! ```
//!
//! The payload is stored as a *string* so the checksum is defined over an
//! exact byte sequence rather than over a re-serialisation of a parsed
//! tree. [`open`] checks the version and recomputes the checksum before
//! the payload is parsed at all, so a flipped bit anywhere in the state is
//! a typed refusal, never a silently different value.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::checksum_hex;

#[derive(Serialize, Deserialize)]
struct Envelope {
    version: u32,
    checksum: String,
    payload: String,
}

/// Why an envelope was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum EnvelopeError {
    /// The text is not an envelope, or the payload does not parse (or
    /// serialize) as the expected type.
    Malformed(String),
    /// The envelope declares a format version other than the expected one.
    Version(u32),
    /// The payload does not hash to the stored checksum.
    Checksum {
        /// Checksum the envelope stores.
        stored: String,
        /// Checksum recomputed over the payload.
        computed: String,
    },
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::Malformed(detail) => f.write_str(detail),
            EnvelopeError::Version(v) => write!(f, "unsupported format version {v}"),
            EnvelopeError::Checksum { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch (stored {stored}, computed {computed})"
                )
            }
        }
    }
}

/// Serializes `payload` and seals it at `version`.
///
/// # Errors
///
/// [`EnvelopeError::Malformed`] if the payload or the envelope does not
/// serialize (e.g. a non-finite float in the payload).
pub fn seal<T: Serialize>(version: u32, payload: &T) -> Result<String, EnvelopeError> {
    let payload = serde_json::to_string(payload)
        .map_err(|e| EnvelopeError::Malformed(format!("payload serialization failed: {e}")))?;
    serde_json::to_string(&Envelope {
        version,
        checksum: checksum_hex(payload.as_bytes()),
        payload,
    })
    .map_err(|e| EnvelopeError::Malformed(format!("envelope serialization failed: {e}")))
}

/// Opens an envelope sealed at `version`: parses it, then checks the
/// version, then the checksum, and only then parses the payload.
///
/// # Errors
///
/// The first check that fails, as an [`EnvelopeError`].
pub fn open<T: Deserialize>(text: &str, version: u32) -> Result<T, EnvelopeError> {
    let envelope: Envelope = serde_json::from_str(text)
        .map_err(|e| EnvelopeError::Malformed(format!("envelope parse failed: {e}")))?;
    if envelope.version != version {
        return Err(EnvelopeError::Version(envelope.version));
    }
    let computed = checksum_hex(envelope.payload.as_bytes());
    if computed != envelope.checksum {
        return Err(EnvelopeError::Checksum {
            stored: envelope.checksum,
            computed,
        });
    }
    serde_json::from_str(&envelope.payload)
        .map_err(|e| EnvelopeError::Malformed(format!("payload parse failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_then_open_round_trips_and_the_bytes_are_pinned() {
        let sealed = seal(1, &vec![1u32, 2]).unwrap();
        assert_eq!(
            sealed,
            format!(
                r#"{{"version":1,"checksum":"{}","payload":"[1,2]"}}"#,
                checksum_hex(b"[1,2]")
            )
        );
        assert_eq!(open::<Vec<u32>>(&sealed, 1).unwrap(), vec![1, 2]);
    }

    #[test]
    fn every_refusal_is_typed() {
        let sealed = seal(1, &vec![1u32, 2]).unwrap();
        assert_eq!(open::<Vec<u32>>(&sealed, 2), Err(EnvelopeError::Version(1)));
        let tampered = sealed.replacen("[1,2]", "[1,3]", 1);
        assert!(matches!(
            open::<Vec<u32>>(&tampered, 1),
            Err(EnvelopeError::Checksum { .. })
        ));
        let cut = &sealed[..sealed.len() / 2];
        assert!(matches!(
            open::<Vec<u32>>(cut, 1),
            Err(EnvelopeError::Malformed(_))
        ));
        assert!(matches!(
            open::<String>(&sealed, 1),
            Err(EnvelopeError::Malformed(_))
        ));
    }
}
