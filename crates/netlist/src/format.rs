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

use std::collections::hash_map::{Entry, HashMap};
use std::fmt::Write as _;
use std::ops::Range;

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
    // An upper bound on the text, so the string is allocated once: a cell
    // line costs at most 12 bytes and one index, a wire 3 bytes and one
    // index, and the header 70 bytes and the name.
    let digits = net.node_count().max(1).ilog10() as usize + 1;
    let cap =
        70 + net.name().len() + net.node_count() * (12 + digits) + net.edge_count() * (3 + digits);
    let mut out = String::with_capacity(cap);
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
        let _ = write!(out, "n{} = ", id.index());
        out.extend(kind.mnemonic().chars().map(|c| c.to_ascii_uppercase()));
        out.push('(');
        for (i, f) in net.fanin(id).iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}n{}", f.index());
        }
        out.push_str(")\n");
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
    let _span = gcnt_obs::span(gcnt_obs::histograms::NETLIST_PARSE_NS);
    /// A statement: an `OUTPUT`, or the definition of signal `name` — cell
    /// `id`, driven by `args` — by an `INPUT` (no arguments) or a gate.
    enum Stmt<'a> {
        Output(&'a str),
        Def {
            name: &'a str,
            id: NodeId,
            args: Range<usize>,
        },
    }

    let mut design = "parsed".to_string();
    let mut stmts: Vec<(usize, Stmt)> = Vec::new();
    // Every gate's arguments back to back; a gate holds its range.
    let mut all_args: Vec<&str> = Vec::new();
    // A defined signal's id is its rank among the definitions, since a
    // redefinition fails the read; `OUTPUT` cells are numbered after them.
    let mut kinds: Vec<CellKind> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            if let Some(named) = comment.trim().strip_prefix("design:") {
                design = named.trim().to_string();
            }
            continue;
        }
        let first = all_args.len();
        let (name, kind) = if let Some(arg) = parse_call(line, "INPUT") {
            (arg, CellKind::Input)
        } else if let Some(arg) = parse_call(line, "OUTPUT") {
            stmts.push((lineno, Stmt::Output(arg)));
            continue;
        } else if let Some((lhs, rhs)) = line.split_once('=') {
            let rhs = rhs.trim();
            let open = rhs
                .find('(')
                .ok_or_else(|| parse_error(lineno, "expected GATE(args)"))?;
            if !rhs.ends_with(')') {
                return Err(parse_error(lineno, "missing closing parenthesis"));
            }
            let kind_str = rhs[..open].trim();
            let kind = CellKind::from_mnemonic(kind_str)
                .ok_or_else(|| parse_error(lineno, format!("unknown gate kind '{kind_str}'")))?;
            if kind == CellKind::Input || kind == CellKind::Output {
                return Err(parse_error(lineno, format!("'{kind_str}' is not a gate")));
            }
            let inner = rhs[open + 1..rhs.len() - 1].split(',').map(str::trim);
            all_args.extend(inner.filter(|s| !s.is_empty()));
            (lhs.trim(), kind)
        } else {
            let message = format!("unrecognised statement '{line}'");
            return Err(parse_error(lineno, message));
        };
        let (id, args) = (NodeId::from_index(kinds.len()), first..all_args.len());
        kinds.push(kind);
        stmts.push((lineno, Stmt::Def { name, id, args }));
    }

    // Pass 1: name every defined signal, each hashed once.
    let mut by_name: HashMap<&str, NodeId> = HashMap::with_capacity(kinds.len());
    for (lineno, stmt) in &stmts {
        if let Stmt::Def { name, id, .. } = stmt {
            let Entry::Vacant(slot) = by_name.entry(name) else {
                return Err(parse_error(*lineno, format!("signal '{name}' redefined")));
            };
            slot.insert(*id);
        }
    }

    // Pass 2: resolve every reference, in statement order, into one edge
    // list: one wire per gate argument and one per `OUTPUT`.
    let outputs = stmts.len() - kinds.len();
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(all_args.len() + outputs);
    for (lineno, stmt) in &stmts {
        let undefined = |what: &str, sig: &str| {
            let message = format!("{what} references undefined signal '{sig}'");
            parse_error(*lineno, message)
        };
        match stmt {
            Stmt::Output(sig) => {
                let driver = *by_name.get(sig).ok_or_else(|| undefined("output", sig))?;
                edges.push((driver, NodeId::from_index(kinds.len())));
                kinds.push(CellKind::Output);
            }
            Stmt::Def { name, id, args } => {
                let first = edges.len();
                for arg in &all_args[args.clone()] {
                    let src = *by_name.get(arg).ok_or_else(|| undefined("gate", arg))?;
                    if edges[first..].iter().any(|&(s, _)| s == src) {
                        let message = format!("gate '{name}' reads signal '{arg}' twice");
                        return Err(parse_error(*lineno, message));
                    }
                    edges.push((src, *id));
                }
            }
        }
    }
    Netlist::from_edges(design, kinds, &edges)
}

fn parse_error(line: usize, message: impl Into<String>) -> NetlistError {
    NetlistError::Parse {
        line,
        message: message.into(),
    }
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

    /// The writer's bytes on a fixed generated design, pinned by their
    /// FNV-1a as the per-line `format!` writer produced them.
    #[test]
    fn writer_bytes_are_pinned() {
        let net = generate(&GeneratorConfig::sized("fnv", 7, 2000));
        let text = write(&net);
        let fnv = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(
            (net.node_count(), text.len(), fnv),
            (2052, 39774, 0x353b_7202_d317_7566)
        );
    }

    #[test]
    fn writer_emits_header() {
        let net = NetlistBuilder::new("hdr").build().unwrap();
        let text = write(&net);
        assert!(text.starts_with("# design: hdr"));
    }
}
