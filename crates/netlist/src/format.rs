//! Plain-text netlist format, modelled on the ISCAS-89 `.bench` style.
//!
//! ```text
//! # design: demo
//! INPUT(a)
//! INPUT(b)
//! OUTPUT(s)
//! s = XOR(a, b)
//! c = AND(a, b)
//! r = DFF(c)
//! OUTPUT(r)
//! ```
//!
//! * `INPUT(name)` declares a primary input.
//! * `OUTPUT(name)` declares that signal `name` is observed at a primary
//!   output (an explicit `Output` cell is created for it).
//! * `name = GATE(a, b, ...)` declares a gate driven by the named signals.
//!
//! Signals may be used before they are defined; the parser resolves names
//! in a second pass. Writing then re-reading a netlist produces a netlist
//! with identical structure (node numbering may differ; semantics are
//! preserved).

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::{CellKind, Netlist, NetlistError, NodeId, Result};

/// Serialises a netlist to the text format.
///
/// Signals are named `n<index>`; `Output` cells become `OUTPUT(...)`
/// declarations rather than named signals.
///
/// # Examples
///
/// ```
/// use gcnt_netlist::{format, CellKind, NetlistBuilder};
///
/// let mut net = NetlistBuilder::new("demo");
/// let a = net.add_cell(CellKind::Input);
/// let o = net.add_cell(CellKind::Output);
/// net.connect(a, o)?;
/// let text = format::write(&net.build()?);
/// assert!(text.contains("INPUT(n0)"));
/// assert!(text.contains("OUTPUT(n0)"));
/// # Ok::<(), gcnt_netlist::NetlistError>(())
/// ```
pub fn write(net: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# design: {}", net.name());
    let _ = writeln!(
        out,
        "# nodes: {} edges: {}",
        net.node_count(),
        net.edge_count()
    );
    for id in net.nodes() {
        if net.kind(id) == CellKind::Input {
            let _ = writeln!(out, "INPUT(n{})", id.index());
        }
    }
    for id in net.nodes() {
        if net.kind(id) == CellKind::Output {
            let driver = net.fanin(id)[0];
            let _ = writeln!(out, "OUTPUT(n{})", driver.index());
        }
    }
    for id in net.nodes() {
        let kind = net.kind(id);
        if kind == CellKind::Input || kind == CellKind::Output {
            continue;
        }
        let args: Vec<String> = net
            .fanin(id)
            .iter()
            .map(|f| format!("n{}", f.index()))
            .collect();
        let _ = writeln!(
            out,
            "n{} = {}({})",
            id.index(),
            kind.mnemonic().to_ascii_uppercase(),
            args.join(", ")
        );
    }
    out
}

/// Parses the text format into a validated netlist.
///
/// # Errors
///
/// * [`NetlistError::Parse`] on malformed lines, unknown gate kinds,
///   redefinitions, a gate that reads one signal twice, or references to
///   signals that are never defined.
/// * [`NetlistError::Invalid`] if the parsed design has a cell with the
///   wrong number of drivers (`y = NOT()` is a well-formed line) or a
///   combinational cycle.
pub fn read(text: &str) -> Result<Netlist> {
    enum Stmt<'a> {
        Input(&'a str),
        Output(&'a str),
        Gate {
            name: &'a str,
            kind: CellKind,
            args: Vec<&'a str>,
        },
    }

    let mut name = "parsed".to_string();
    let mut stmts: Vec<(usize, Stmt)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            if let Some(design) = comment.trim().strip_prefix("design:") {
                name = design.trim().to_string();
            }
            continue;
        }
        if let Some(arg) = parse_call(line, "INPUT") {
            stmts.push((lineno, Stmt::Input(arg)));
        } else if let Some(arg) = parse_call(line, "OUTPUT") {
            stmts.push((lineno, Stmt::Output(arg)));
        } else if let Some((lhs, rhs)) = line.split_once('=') {
            let lhs = lhs.trim();
            let rhs = rhs.trim();
            let open = rhs.find('(').ok_or_else(|| NetlistError::Parse {
                line: lineno,
                message: "expected GATE(args)".to_string(),
            })?;
            if !rhs.ends_with(')') {
                return Err(NetlistError::Parse {
                    line: lineno,
                    message: "missing closing parenthesis".to_string(),
                });
            }
            let kind_str = rhs[..open].trim();
            let kind = CellKind::from_mnemonic(kind_str).ok_or_else(|| NetlistError::Parse {
                line: lineno,
                message: format!("unknown gate kind '{kind_str}'"),
            })?;
            if kind == CellKind::Input || kind == CellKind::Output {
                return Err(NetlistError::Parse {
                    line: lineno,
                    message: format!("'{kind_str}' is not a gate"),
                });
            }
            let args: Vec<&str> = rhs[open + 1..rhs.len() - 1]
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            stmts.push((
                lineno,
                Stmt::Gate {
                    name: lhs,
                    kind,
                    args,
                },
            ));
        } else {
            return Err(NetlistError::Parse {
                line: lineno,
                message: format!("unrecognised statement '{line}'"),
            });
        }
    }

    // Pass 1: create cells for all defined signals.
    let mut net = Netlist::new(name);
    let mut by_name: HashMap<&str, NodeId> = HashMap::new();
    for (lineno, stmt) in &stmts {
        let (sig, kind) = match stmt {
            Stmt::Input(sig) => (*sig, CellKind::Input),
            Stmt::Gate { name, kind, .. } => (*name, *kind),
            Stmt::Output(_) => continue,
        };
        if by_name.contains_key(sig) {
            return Err(NetlistError::Parse {
                line: *lineno,
                message: format!("signal '{sig}' redefined"),
            });
        }
        by_name.insert(sig, net.add_cell(kind));
    }

    // Pass 2: connect.
    for (lineno, stmt) in &stmts {
        match stmt {
            Stmt::Input(_) => {}
            Stmt::Output(sig) => {
                let driver = *by_name.get(sig).ok_or_else(|| NetlistError::Parse {
                    line: *lineno,
                    message: format!("output references undefined signal '{sig}'"),
                })?;
                let po = net.add_cell(CellKind::Output);
                net.connect(driver, po)?;
            }
            Stmt::Gate { name, args, .. } => {
                let id = by_name[*name];
                for arg in args {
                    let src = *by_name.get(arg).ok_or_else(|| NetlistError::Parse {
                        line: *lineno,
                        message: format!("gate references undefined signal '{arg}'"),
                    })?;
                    // The only way to fail: `src` is already a fanin.
                    net.connect(src, id).map_err(|_| NetlistError::Parse {
                        line: *lineno,
                        message: format!("gate '{name}' reads signal '{arg}' twice"),
                    })?;
                }
            }
        }
    }
    net.validated()
}

fn parse_call<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(keyword)?.trim_start();
    let inner = rest.strip_prefix('(')?.strip_suffix(')')?;
    Some(inner.trim())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, GeneratorConfig, NetlistBuilder, Scoap};

    #[test]
    fn parse_simple_design() {
        let text = "
            # design: half_adder
            INPUT(a)
            INPUT(b)
            s = XOR(a, b)
            c = AND(a, b)
            OUTPUT(s)
            OUTPUT(c)
        ";
        let net = read(text).unwrap();
        assert_eq!(net.name(), "half_adder");
        assert_eq!(net.primary_inputs().len(), 2);
        assert_eq!(net.primary_outputs().len(), 2);
    }

    #[test]
    fn signals_may_be_used_before_definition() {
        let text = "
            INPUT(a)
            y = NOT(x)
            x = NOT(a)
            OUTPUT(y)
        ";
        let net = read(text).unwrap();
        assert_eq!(net.node_count(), 4);
    }

    #[test]
    fn dff_round_trip() {
        let text = "
            INPUT(d)
            q = DFF(d)
            OUTPUT(q)
        ";
        let net = read(text).unwrap();
        assert_eq!(net.flip_flops().len(), 1);
        let again = read(&write(&net)).unwrap();
        assert_eq!(again.flip_flops().len(), 1);
    }

    #[test]
    fn unknown_gate_rejected() {
        let err = read("x = FROB(a)").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 1, .. }));
    }

    #[test]
    fn undefined_signal_rejected() {
        let err = read("INPUT(a)\nx = AND(a, ghost)\nOUTPUT(x)").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 2, .. }));
    }

    #[test]
    fn redefinition_rejected() {
        let err = read("INPUT(a)\na = NOT(a)").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 2, .. }));
    }

    #[test]
    fn duplicate_argument_is_a_parse_error() {
        let err = read("INPUT(a)\ny = AND(a, a)\nOUTPUT(y)").unwrap_err();
        assert_eq!(
            err,
            NetlistError::Parse {
                line: 2,
                message: "gate 'y' reads signal 'a' twice".to_string()
            }
        );
    }

    #[test]
    fn arity_and_cycle_violations_are_refused() {
        let err = read("INPUT(a)\ny = NOT()\nz = AND(a, y)\nOUTPUT(z)").unwrap_err();
        assert!(
            matches!(err, NetlistError::Invalid(ref v) if v.len() == 1),
            "{err}"
        );
        let err = read("INPUT(a)\nx = AND(a, y)\ny = OR(a, x)\nOUTPUT(x)").unwrap_err();
        assert_eq!(err.to_string(), "combinational cycle through node n1");
    }

    #[test]
    fn malformed_line_rejected() {
        assert!(read("this is not a netlist").is_err());
        assert!(read("x = AND(a").is_err());
    }

    #[test]
    fn round_trip_preserves_semantics() {
        let net = generate(&GeneratorConfig {
            gates: 300,
            inputs: 16,
            ..GeneratorConfig::default()
        });
        let text = write(&net);
        let back = read(&text).unwrap();
        assert_eq!(back.node_count(), net.node_count());
        assert_eq!(back.edge_count(), net.edge_count());
        // SCOAP profiles must match even if node numbering shifted.
        let s1 = Scoap::compute(&net).unwrap();
        let s2 = Scoap::compute(&back).unwrap();
        let mut p1: Vec<u32> = s1.co_all().to_vec();
        let mut p2: Vec<u32> = s2.co_all().to_vec();
        p1.sort_unstable();
        p2.sort_unstable();
        assert_eq!(p1, p2);
    }

    #[test]
    fn writer_emits_header() {
        let net = NetlistBuilder::new("hdr").build().unwrap();
        let text = write(&net);
        assert!(text.starts_with("# design: hdr"));
    }
}
