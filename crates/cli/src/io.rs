//! Command-line plumbing: flag parsing, and trace loading through the
//! one trace store, [`UnifiedTraces`].

use iotrace_core::aggregation::UnifiedTraces;
use iotrace_model::xtea::Key;

/// One parsed flag: `--name` and its value, if it takes one.
pub type Flag = (String, Option<String>);

/// Flags that take a value: `--name <value>`.
const VALUE_FLAGS: &[&str] = &[
    "encrypt",
    "key",
    "seed",
    "top",
    "pass",
    "only",
    "policy",
    "query",
    "taint",
    "fault-plan",
    "checkpoint-every",
    "out",
    "records",
    "clients",
    "frame-records",
    "segment-records",
    "queue-capacity",
    "drain-per-tick",
    "kill-at-frame",
    "status-every",
    "peer",
    "kill-peer-at-frame",
];

/// Flags that take no value.
const SWITCHES: &[&str] = &[
    "binary",
    "checksum",
    "compress",
    "deny-warnings",
    "json",
    "no-lint",
    "recover-only",
    "text",
    "v2",
];

/// Split flags from positional args: returns (positional, flags). A
/// value flag takes the next argument as its value; an unknown flag, or
/// a value flag with nothing after it, is an error naming the flag.
pub fn split_args(args: &[String]) -> Result<(Vec<String>, Vec<Flag>), String> {
    let mut pos = Vec::new();
    let mut flags = Vec::new();
    let mut args = args.iter();
    while let Some(a) = args.next() {
        let Some(name) = a.strip_prefix("--") else {
            pos.push(a.clone());
            continue;
        };
        let value = if SWITCHES.contains(&name) {
            None
        } else if VALUE_FLAGS.contains(&name) {
            let v = args
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?;
            Some(v.clone())
        } else {
            return Err(format!("unknown flag --{name}"));
        };
        flags.push((name.to_string(), value));
    }
    Ok((pos, flags))
}

pub fn flag<'a>(flags: &'a [Flag], name: &str) -> Option<&'a Option<String>> {
    flags.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

pub fn key_from(flags: &[Flag], name: &str) -> Option<Key> {
    flag(flags, name)
        .and_then(|v| v.as_deref())
        .map(Key::from_passphrase)
}

/// Load trace files of any format (decrypting with `--key`) and print
/// each damaged file's salvage report as a warning, in argument order.
pub fn read_store(paths: &[String], flags: &[Flag]) -> Result<UnifiedTraces, String> {
    let key = key_from(flags, "key");
    let (store, reports) =
        UnifiedTraces::load_files(paths, key.as_ref()).map_err(|e| e.to_string())?;
    for r in reports {
        eprintln!("iotrace: warning: {r}");
    }
    Ok(store)
}
