//! Independent oracles for the front end: the text reader, SCOAP's
//! observability and the adjacency CSRs, each checked against a plain
//! reference written here from its definition and sharing no code with
//! the implementation.
//!
//! * `format::read` against the two-pass reader over the public
//!   [`NetlistBuilder`]: one `connect` per reference, so a duplicate
//!   argument is the builder's `DuplicateEdge`. On the writer's text and
//!   on text mutated by byte flips, deleted syntax, duplicated, swapped
//!   and dropped lines, repeated arguments and cuts, both must return the
//!   same netlist or the same error — variant, line and message.
//! * `Scoap::compute`'s CO against a per-node pull in reverse topological
//!   order, each side sum folded with saturation, on random designs, a
//!   1,000-fanout hub and a 40-level ladder whose CC1 saturates.
//! * `GraphTensors::from_netlist` against CSR arrays built here from
//!   `(row, col)` triplets, sorted and counted per row, before and after
//!   random OP insertions.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::Rng;

use gcn_testability::gcn::GraphTensors;
use gcn_testability::netlist::{
    format, generate, CellKind, GeneratorConfig, Netlist, NetlistBuilder, NetlistError, NodeId,
    Scoap, SCOAP_INF,
};
use gcn_testability::nn::seeded_rng;

fn arb_netlist() -> impl Strategy<Value = Netlist> {
    (2usize..12, 5usize..60, any::<u64>()).prop_map(|(inputs, gates, seed)| {
        generate(&GeneratorConfig {
            inputs,
            gates,
            seed,
            ..GeneratorConfig::default()
        })
    })
}

fn parse_error(line: usize, message: String) -> NetlistError {
    NetlistError::Parse { line, message }
}

fn parse_call<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(keyword)?.trim_start();
    Some(rest.strip_prefix('(')?.strip_suffix(')')?.trim())
}

/// The reader by its definition: tokenize every line (the first
/// malformed one fails), define every `INPUT` and gate in order (the
/// first redefinition fails), then connect in statement order, each
/// `OUTPUT` adding its cell as it comes (the first undefined or repeated
/// reference fails), and build.
fn reference_read(text: &str) -> Result<Netlist, NetlistError> {
    enum Stmt<'a> {
        Input(&'a str),
        Output(&'a str),
        Gate(&'a str, CellKind, Vec<&'a str>),
    }
    let mut name = "parsed".to_string();
    let mut stmts = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let (lineno, line) = (i + 1, raw.trim());
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            if let Some(design) = comment.trim().strip_prefix("design:") {
                name = design.trim().to_string();
            }
            continue;
        }
        let stmt = if let Some(arg) = parse_call(line, "INPUT") {
            Stmt::Input(arg)
        } else if let Some(arg) = parse_call(line, "OUTPUT") {
            Stmt::Output(arg)
        } else if let Some((lhs, rhs)) = line.split_once('=') {
            let rhs = rhs.trim();
            let Some(open) = rhs.find('(') else {
                return Err(parse_error(lineno, "expected GATE(args)".into()));
            };
            if !rhs.ends_with(')') {
                return Err(parse_error(lineno, "missing closing parenthesis".into()));
            }
            let kind_str = rhs[..open].trim();
            let kind = CellKind::ALL
                .into_iter()
                .find(|k| k.mnemonic() == kind_str.to_ascii_lowercase())
                .ok_or_else(|| parse_error(lineno, format!("unknown gate kind '{kind_str}'")))?;
            if matches!(kind, CellKind::Input | CellKind::Output) {
                return Err(parse_error(lineno, format!("'{kind_str}' is not a gate")));
            }
            let args = rhs[open + 1..rhs.len() - 1]
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            Stmt::Gate(lhs.trim(), kind, args)
        } else {
            return Err(parse_error(
                lineno,
                format!("unrecognised statement '{line}'"),
            ));
        };
        stmts.push((lineno, stmt));
    }

    let mut b = NetlistBuilder::new(name);
    let mut by_name: HashMap<&str, NodeId> = HashMap::new();
    for (lineno, stmt) in &stmts {
        let (sig, kind) = match stmt {
            Stmt::Input(sig) => (*sig, CellKind::Input),
            Stmt::Gate(sig, kind, _) => (*sig, *kind),
            Stmt::Output(_) => continue,
        };
        if by_name.contains_key(sig) {
            return Err(parse_error(*lineno, format!("signal '{sig}' redefined")));
        }
        by_name.insert(sig, b.add_cell(kind));
    }
    for (lineno, stmt) in &stmts {
        match stmt {
            Stmt::Input(_) => {}
            Stmt::Output(sig) => {
                let Some(&driver) = by_name.get(sig) else {
                    let message = format!("output references undefined signal '{sig}'");
                    return Err(parse_error(*lineno, message));
                };
                let po = b.add_cell(CellKind::Output);
                b.connect(driver, po)?;
            }
            Stmt::Gate(sig, _, args) => {
                let id = by_name[sig];
                for arg in args {
                    let Some(&src) = by_name.get(arg) else {
                        let message = format!("gate references undefined signal '{arg}'");
                        return Err(parse_error(*lineno, message));
                    };
                    if let Err(NetlistError::DuplicateEdge { .. }) = b.connect(src, id) {
                        let message = format!("gate '{sig}' reads signal '{arg}' twice");
                        return Err(parse_error(*lineno, message));
                    }
                }
            }
        }
    }
    b.build()
}

/// Applies one random edit to `text`, which stays ASCII.
fn mutate(text: &mut String, rng: &mut impl Rng) {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    if lines.is_empty() || text.is_empty() {
        return;
    }
    let mut below = |len: usize| rng.gen_range(0..len.max(1));
    match below(9) {
        // A byte flipped to a character the grammar cares about.
        0 => {
            let alphabet = b"()=,# \nnaAXDF01";
            let at = below(text.len());
            let with = alphabet[below(alphabet.len())] as char;
            text.replace_range(at..at + 1, &with.to_string());
            return;
        }
        // One piece of syntax deleted.
        1 => {
            let syntax: Vec<usize> = text
                .bytes()
                .enumerate()
                .filter(|(_, c)| b"()=,".contains(c))
                .map(|(i, _)| i)
                .collect();
            if !syntax.is_empty() {
                text.remove(syntax[below(syntax.len())]);
            }
            return;
        }
        // A cut anywhere.
        2 => {
            text.truncate(below(text.len()));
            return;
        }
        // A line duplicated somewhere.
        3 => {
            let line = lines[below(lines.len())].clone();
            let at = below(lines.len() + 1);
            lines.insert(at, line);
        }
        // Two lines swapped.
        4 => {
            let (a, b) = (below(lines.len()), below(lines.len()));
            lines.swap(a, b);
        }
        // A line dropped.
        5 => {
            lines.remove(below(lines.len()));
        }
        // A gate's arguments edited: the first repeated at the end, the
        // last dropped, or one renamed to another gate's output.
        edit => {
            let gates: Vec<usize> = (0..lines.len())
                .filter(|&i| lines[i].contains(" = "))
                .collect();
            let Some(&g) = gates.get(below(gates.len())) else {
                return;
            };
            let other = &lines[gates[below(gates.len())]];
            let renamed = other.split(" = ").next().unwrap_or("").to_string();
            let line = &lines[g];
            let (Some(open), Some(close)) = (line.find('('), line.rfind(')')) else {
                return;
            };
            let (head, tail) = (&line[..=open], &line[close..]);
            let mut args: Vec<&str> = line[open + 1..close].split(", ").collect();
            match edit {
                6 => args.push(args[0]),
                7 => {
                    args.pop();
                }
                _ => {
                    let at = below(args.len());
                    args[at] = &renamed;
                }
            }
            lines[g] = format!("{head}{}{tail}", args.join(", "));
        }
    }
    *text = lines.join("\n");
}

/// CO by its definition: a node's observability is the cheapest of its
/// fanout branches, pulled in reverse topological order; a branch through
/// a gate costs the gate's CO plus what its other inputs cost to hold at
/// their non-controlling values, plus one, each sum saturating at
/// `SCOAP_INF`.
fn pulled_co(net: &Netlist, s: &Scoap) -> Vec<u32> {
    let sat = |a: u32, b: u32| a.saturating_add(b).min(SCOAP_INF);
    let mut co = vec![SCOAP_INF; net.node_count()];
    for &v in net.topo_order().iter().rev() {
        if net.kind(v) == CellKind::Output {
            co[v.index()] = 0;
            continue;
        }
        let mut best = SCOAP_INF;
        for &u in net.fanout(v) {
            let side = |cost: &dyn Fn(NodeId) -> u32| {
                let others = net.fanin(u).iter().filter(|&&w| w != v);
                others.map(|&w| cost(w)).fold(0, sat)
            };
            let through = |side: u32| sat(sat(co[u.index()], side), 1);
            let branch = match net.kind(u) {
                CellKind::Output => 0,
                CellKind::Dff => 1,
                CellKind::Buf | CellKind::Not => through(0),
                CellKind::And | CellKind::Nand => through(side(&|w| s.cc1(w))),
                CellKind::Or | CellKind::Nor => through(side(&|w| s.cc0(w))),
                CellKind::Xor | CellKind::Xnor => through(side(&|w| s.cc0(w).min(s.cc1(w)))),
                CellKind::Input => unreachable!("an input has no fanin"),
            };
            best = best.min(branch);
        }
        co[v.index()] = best;
    }
    co
}

fn check_co(net: &Netlist) {
    let s = Scoap::compute(net).unwrap();
    assert_eq!(s.co_all(), pulled_co(net, &s).as_slice());
}

/// The CSR arrays `(indptr, indices, values)` of the `n x n` matrix with a
/// 1 at each `(row, col)` of `entries`: the triplets sorted, then counted
/// per row.
fn triplet_csr(n: usize, mut entries: Vec<(usize, usize)>) -> (Vec<usize>, Vec<u32>, Vec<f32>) {
    entries.sort_unstable();
    let mut indptr = vec![0; n + 1];
    for &(r, _) in &entries {
        indptr[r + 1] += 1;
    }
    for r in 0..n {
        indptr[r + 1] += indptr[r];
    }
    let indices = entries.iter().map(|&(_, c)| c as u32).collect();
    (indptr, indices, vec![1.0; entries.len()])
}

/// `P[v][u] = 1` per fanin `u` of `v`, `S[v][u] = 1` per fanout.
fn check_tensors(net: &Netlist, t: &GraphTensors) {
    let n = net.node_count();
    let (mut pred, mut succ) = (Vec::new(), Vec::new());
    for v in net.nodes() {
        pred.extend(net.fanin(v).iter().map(|u| (v.index(), u.index())));
        succ.extend(net.fanout(v).iter().map(|u| (v.index(), u.index())));
    }
    for (csr, entries) in [(t.pred(), pred), (t.succ(), succ)] {
        assert_eq!(csr.shape(), (n, n));
        let arrays = (
            csr.indptr().to_vec(),
            csr.indices().to_vec(),
            csr.values().to_vec(),
        );
        assert_eq!(arrays, triplet_csr(n, entries));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The writer's text and 24 mutants of it read to the same netlist or
    /// the same error as the reference reader.
    #[test]
    fn read_is_the_reference_reader(net in arb_netlist(), seed in any::<u64>()) {
        let text = format::write(&net);
        prop_assert_eq!(format::read(&text), reference_read(&text));
        let mut rng = seeded_rng(seed);
        for _ in 0..24 {
            let mut mutant = text.clone();
            for _ in 0..rng.gen_range(1..4) {
                mutate(&mut mutant, &mut rng);
            }
            prop_assert_eq!(format::read(&mutant), reference_read(&mutant), "{}", mutant);
        }
    }

    #[test]
    fn scoap_co_is_the_pulled_definition(net in arb_netlist()) {
        check_co(&net);
    }

    /// Both CSRs equal the triplet build, and stay equal to a rebuild through
    /// OP insertions made in place.
    #[test]
    fn tensors_are_the_coo_build(net in arb_netlist(), seed in any::<u64>()) {
        // Read back from text, so fanin lists are in argument order.
        let mut net = format::read(&format::write(&net)).unwrap();
        let mut t = GraphTensors::from_netlist(&net);
        check_tensors(&net, &t);
        let mut rng = seeded_rng(seed);
        for _ in 0..8 {
            let target = NodeId::from_index(rng.gen_range(0..net.node_count()));
            if net.kind(target) == CellKind::Output {
                continue;
            }
            let op = net.insert_observation_point(target).unwrap();
            t.insert_observation_point(target, op).unwrap();
            let fresh = GraphTensors::from_netlist(&net);
            check_tensors(&net, &fresh);
            prop_assert_eq!(&t, &fresh);
        }
    }
}

/// Lines that read or fail the same, including every error the reader
/// names, one by one.
#[test]
fn read_fails_like_the_reference_on_each_error() {
    for text in [
        "INPUT(a)\ny = AND(a, a)\nOUTPUT(y)",
        "INPUT(a)\nINPUT(b)\ny = AND(a, b, a, ghost)\nOUTPUT(y)",
        "INPUT(a)\ny = AND(a, ghost)\nz = AND(a, a)\nOUTPUT(z)",
        "INPUT(a)\na = NOT(a)\ny = AND(a, a)",
        "INPUT(a)\nOUTPUT(ghost)\ny = AND(a, nope)",
        "y = NOT(a\nINPUT(a)",
        "INPUT(a)\ny = frob(a)",
        "INPUT(a)\ny = input(a)",
        "INPUT(a)\ny NOT a",
        "INPUT(a)\ny = nand(a, y)\nOUTPUT(y)",
        "INPUT(a)\ny = NOT()\nOUTPUT(y)",
        "# design: named\nINPUT(a)\ny = Buf(a)\nOUTPUT(y)\nOUTPUT(y)",
        "",
    ] {
        assert_eq!(format::read(text), reference_read(text), "{text}");
    }
}

/// One buffered input drives 1,000 cells of every kind, each with its
/// own side inputs; some are observed, some only through a DFF.
#[test]
fn scoap_co_through_a_thousand_fanout_hub() {
    let kinds = [
        CellKind::And,
        CellKind::Or,
        CellKind::Xor,
        CellKind::Nand,
        CellKind::Nor,
        CellKind::Xnor,
        CellKind::Not,
        CellKind::Buf,
        CellKind::Dff,
    ];
    let mut b = NetlistBuilder::new("hub");
    let a = b.add_cell(CellKind::Input);
    let hub = b.add_cell(CellKind::Buf);
    b.connect(a, hub).unwrap();
    let mut prev = a;
    for i in 0..1000 {
        let kind = kinds[i % kinds.len()];
        let g = b.add_cell(kind);
        b.connect(hub, g).unwrap();
        if kind.arity().0 >= 2 {
            // A side input that costs more the further along it is.
            let side = b.add_cell(CellKind::Not);
            b.connect(prev, side).unwrap();
            b.connect(side, g).unwrap();
        }
        prev = g;
        if i % 7 == 0 {
            let o = b.add_cell(CellKind::Output);
            b.connect(g, o).unwrap();
        }
    }
    let net = b.build().unwrap();
    assert_eq!(net.fanout(hub).len(), 1000);
    check_co(&net);
}

/// `y_i = AND(y_{i-1}, BUF(y_{i-1}))` doubles CC1 per level, so it
/// saturates at `SCOAP_INF` well before level 40; ten buffers of the top
/// then meet in one AND, whose side sums exceed `u32` unless capped.
#[test]
fn scoap_co_through_a_saturating_ladder() {
    let mut b = NetlistBuilder::new("ladder");
    let mut y = b.add_cell(CellKind::Input);
    for _ in 0..40 {
        let buf = b.add_cell(CellKind::Buf);
        let next = b.add_cell(CellKind::And);
        b.connect(y, buf).unwrap();
        b.connect(y, next).unwrap();
        b.connect(buf, next).unwrap();
        y = next;
    }
    let wide = b.add_cell(CellKind::And);
    for _ in 0..10 {
        let buf = b.add_cell(CellKind::Buf);
        b.connect(y, buf).unwrap();
        b.connect(buf, wide).unwrap();
    }
    let o = b.add_cell(CellKind::Output);
    b.connect(wide, o).unwrap();
    let net = b.build().unwrap();
    let s = Scoap::compute(&net).unwrap();
    assert_eq!(s.cc1(y), SCOAP_INF);
    check_co(&net);
}
