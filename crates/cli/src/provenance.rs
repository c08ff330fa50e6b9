//! `iotrace provenance` — lineage queries over a capture.
//!
//! Builds the byte-range lineage graph (`iotrace-provenance`) from the
//! given trace files — including the //TRACE dependency map when the
//! input is a replayable document — and answers:
//!
//! * `--query <path>`: full upstream lineage of the file's final bytes
//!   (which ranks, which ops, which byte ranges flowed in);
//! * `--taint <rank:N | path>`: everything downstream of a rank or file;
//! * neither: a graph summary (node/edge counts and known paths).
//!
//! Output is deterministic; `--json` emits a stable machine-readable
//! document (schema `iotrace-provenance/1`).

use iotrace_model::event::Trace;
use iotrace_partrace::deps::DependencyMap;
use iotrace_provenance::query::{render_taint, render_upstream};
use iotrace_provenance::{taint, upstream, Lineage, LineageGraph, Policy, TaintSource};

use crate::io::{flag, key_from, load, split_args, Loaded};

/// Resolve `--policy <file>` into a parsed [`Policy`].
pub fn load_policy(flags: &[(String, Option<String>)]) -> Result<Option<Policy>, String> {
    let Some(v) = flag(flags, "policy") else {
        return Ok(None);
    };
    let Some(path) = v.as_deref() else {
        return Err("--policy needs a file".to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Policy::parse(&text)
        .map(Some)
        .map_err(|e| format!("{path}: {e}"))
}

/// Load the captures `lint` and `provenance` read: flatten traces, keep
/// the dependency map only when a single replayable document was given
/// (its record indices are meaningless across captures).
pub(crate) fn load_capture(
    paths: &[String],
    flags: &[(String, Option<String>)],
) -> Result<(Vec<Trace>, Option<DependencyMap>), String> {
    let key = key_from(flags, "key");
    let mut traces = Vec::new();
    let mut deps = None;
    for p in paths {
        match load(p, key.as_ref())? {
            Loaded::Traces(ts) => traces.extend(ts),
            Loaded::Replayable(rt) => {
                traces.extend(rt.traces);
                deps = if paths.len() == 1 {
                    Some(rt.deps)
                } else {
                    None
                };
            }
        }
    }
    Ok((traces, deps))
}

pub fn run(args: &[String]) -> Result<(), String> {
    let (paths, flags) = split_args(args);
    if paths.is_empty() {
        return Err(
            "provenance needs <trace>... plus --query <path> or --taint <rank:N|path>".to_string(),
        );
    }
    let (traces, deps) = load_capture(&paths, &flags)?;
    if traces.is_empty() {
        return Err("no traces given".to_string());
    }
    let g = LineageGraph::build(&traces, deps.as_ref());
    let json = flag(&flags, "json").is_some();

    let query = flag(&flags, "query").and_then(|v| v.clone());
    let taint_spec = flag(&flags, "taint").and_then(|v| v.clone());
    match (query, taint_spec) {
        (Some(_), Some(_)) => Err("pass either --query or --taint, not both".to_string()),
        (Some(path), None) => {
            let l = upstream(&g, &path);
            if json {
                print!("{}", lineage_json(&g, "upstream", &path, &l));
            } else {
                print!("{}", render_upstream(&g, &path, &l));
            }
            Ok(())
        }
        (None, Some(spec)) => {
            let source = TaintSource::parse(&spec)?;
            let l = taint(&g, &source);
            if json {
                print!("{}", lineage_json(&g, "taint", &spec, &l));
            } else {
                print!("{}", render_taint(&g, &source, &l));
            }
            Ok(())
        }
        (None, None) => {
            if json {
                print!("{}", summary_json(&g));
            } else {
                print!("{}", summary_text(&g));
            }
            Ok(())
        }
    }
}

fn summary_text(g: &LineageGraph) -> String {
    let (w, r, o, flow, dep) = g.counts();
    let mut out = format!(
        "lineage graph: {} node(s) ({w} write, {r} read, {o} op), \
         {} edge(s) ({flow} flow, {dep} dep), {} orphan span(s)\n",
        g.nodes.len(),
        g.edges.len(),
        g.orphans.len()
    );
    out.push_str("paths:\n");
    for p in g.known_paths() {
        out.push_str(&format!("  {p}\n"));
    }
    out.push_str("query with --query <path> or --taint <rank:N|path>\n");
    out
}

fn summary_json(g: &LineageGraph) -> String {
    let (w, r, o, flow, dep) = g.counts();
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"iotrace-provenance/1\",\n  \"mode\": \"summary\",\n");
    out.push_str(&format!(
        "  \"nodes\": {},\n  \"writes\": {w},\n  \"reads\": {r},\n  \"ops\": {o},\n",
        g.nodes.len()
    ));
    out.push_str(&format!(
        "  \"flow_edges\": {flow},\n  \"dep_edges\": {dep},\n  \"orphan_spans\": {},\n",
        g.orphans.len()
    ));
    out.push_str("  \"paths\": [");
    for (i, p) in g.known_paths().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", esc(p)));
    }
    out.push_str("]\n}\n");
    out
}

fn lineage_json(g: &LineageGraph, mode: &str, subject: &str, l: &Lineage) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"iotrace-provenance/1\",\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", esc(mode)));
    out.push_str(&format!("  \"subject\": \"{}\",\n", esc(subject)));
    out.push_str(&format!("  \"ranks\": {:?},\n", l.ranks(g)));
    out.push_str("  \"nodes\": [");
    for (i, &id) in l.nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let n = &g.nodes[id as usize];
        out.push_str(&format!(
            "\n    {{\"rank\": {}, \"record\": {}, \"epoch\": {}, \"kind\": \"{}\", \
             \"op\": \"{}\", \"path\": {}, \"start\": {}, \"end\": {}}}",
            n.rank,
            n.record,
            n.epoch,
            n.kind.as_str(),
            esc(n.op),
            match g.path_of(id) {
                Some(p) => format!("\"{}\"", esc(p)),
                None => "null".to_string(),
            },
            n.start,
            n.end
        ));
    }
    if !l.nodes.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Minimal JSON string escaping (mirrors the lint report's).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
