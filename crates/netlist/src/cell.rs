use std::fmt;

use serde::{Deserialize, Serialize};

/// The kind of a netlist cell.
///
/// The set matches what a post-synthesis scan netlist contains: primary
/// I/O markers, simple combinational gates, and scan flip-flops. `Output`
/// cells are explicit sink nodes — an observation point inserted by the TPI
/// flow *is* an `Output` cell (a scan cell that makes its single fanin
/// directly observable, paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// Primary input (no fanin).
    Input,
    /// Primary output / observation point (exactly one fanin, no fanout).
    Output,
    /// Non-inverting buffer (one fanin).
    Buf,
    /// Inverter (one fanin).
    Not,
    /// AND gate (two or more fanins).
    And,
    /// NAND gate (two or more fanins).
    Nand,
    /// OR gate (two or more fanins).
    Or,
    /// NOR gate (two or more fanins).
    Nor,
    /// XOR gate (two or more fanins, odd parity).
    Xor,
    /// XNOR gate (two or more fanins, even parity).
    Xnor,
    /// Scan D flip-flop (one fanin). Under the full-scan assumption its
    /// output is a pseudo primary input and its input a pseudo primary
    /// output.
    Dff,
}

impl CellKind {
    /// All cell kinds, in a fixed order.
    pub const ALL: [CellKind; 11] = [
        CellKind::Input,
        CellKind::Output,
        CellKind::Buf,
        CellKind::Not,
        CellKind::And,
        CellKind::Nand,
        CellKind::Or,
        CellKind::Nor,
        CellKind::Xor,
        CellKind::Xnor,
        CellKind::Dff,
    ];

    /// Inclusive fanin-arity bounds `(min, max)` for this cell kind.
    /// `usize::MAX` means unbounded.
    pub fn arity(self) -> (usize, usize) {
        match self {
            CellKind::Input => (0, 0),
            CellKind::Output | CellKind::Buf | CellKind::Not | CellKind::Dff => (1, 1),
            CellKind::And
            | CellKind::Nand
            | CellKind::Or
            | CellKind::Nor
            | CellKind::Xor
            | CellKind::Xnor => (2, usize::MAX),
        }
    }

    /// Whether the cell is a combinational source in scan mode (primary
    /// input or scan flip-flop output).
    pub fn is_pseudo_input(self) -> bool {
        matches!(self, CellKind::Input | CellKind::Dff)
    }

    /// Whether the cell's fanin is directly observable in scan mode
    /// (primary output or scan flip-flop input).
    pub fn is_pseudo_output(self) -> bool {
        matches!(self, CellKind::Output | CellKind::Dff)
    }

    /// Short lowercase mnemonic used by the text format.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CellKind::Input => "input",
            CellKind::Output => "output",
            CellKind::Buf => "buf",
            CellKind::Not => "not",
            CellKind::And => "and",
            CellKind::Nand => "nand",
            CellKind::Or => "or",
            CellKind::Nor => "nor",
            CellKind::Xor => "xor",
            CellKind::Xnor => "xnor",
            CellKind::Dff => "dff",
        }
    }

    /// Parses a mnemonic (case-insensitive).
    pub fn from_mnemonic(s: &str) -> Option<CellKind> {
        let lower = s.to_ascii_lowercase();
        CellKind::ALL.into_iter().find(|k| k.mnemonic() == lower)
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_bounds() {
        assert_eq!(CellKind::Input.arity(), (0, 0));
        assert_eq!(CellKind::Not.arity(), (1, 1));
        assert_eq!(CellKind::And.arity().0, 2);
    }

    #[test]
    fn mnemonic_round_trip() {
        for kind in CellKind::ALL {
            assert_eq!(CellKind::from_mnemonic(kind.mnemonic()), Some(kind));
        }
        assert_eq!(CellKind::from_mnemonic("NAND"), Some(CellKind::Nand));
        assert_eq!(CellKind::from_mnemonic("bogus"), None);
    }

    #[test]
    fn pseudo_io_classification() {
        assert!(CellKind::Dff.is_pseudo_input());
        assert!(CellKind::Dff.is_pseudo_output());
        assert!(CellKind::Input.is_pseudo_input());
        assert!(!CellKind::Input.is_pseudo_output());
        assert!(CellKind::Output.is_pseudo_output());
        assert!(!CellKind::And.is_pseudo_input());
    }

    #[test]
    fn display_matches_mnemonic() {
        assert_eq!(CellKind::Xor.to_string(), "xor");
    }
}
