//! Information-flow policies over path globs.
//!
//! A policy file labels paths with **confidentiality** and **integrity**
//! levels (the trace2e model): data may flow from a source to a sink
//! only if the sink's confidentiality level is at least the source's
//! (no leaking down) and the source's integrity level is at least the
//! sink's (no tainting up). The `policy-flow` lint pass evaluates every
//! lineage flow edge against these rules.
//!
//! File format — one rule per line, `#` comments:
//!
//! ```text
//! # kind   glob                  level
//! conf     /pfs/secret/**        3
//! conf     /pfs/out/public.dat   0
//! integ    /pfs/in/**            2
//! integ    /tmp/*                0
//! ```
//!
//! Globs ([`glob_match`]): `*` matches within one path segment, `**`
//! matches across segments, `?` matches one character other than `/`.
//! When several globs match a path, the **highest** matching level wins
//! (most-restrictive-wins keeps the check conservative). Unlabeled paths default to level 0 for
//! confidentiality (public) and — asymmetrically — level 0 for
//! integrity (untrusted), so a policy only constrains what it names.

use iotrace_fs::path::glob_match;

/// Which lattice a rule labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabelKind {
    Confidentiality,
    Integrity,
}

/// One `conf`/`integ` line from a policy file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelRule {
    pub kind: LabelKind,
    pub glob: String,
    pub level: u8,
    /// 1-based line in the policy file (diagnostics point here).
    pub line: usize,
}

/// A parsed policy: an ordered list of label rules.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Policy {
    pub rules: Vec<LabelRule>,
}

impl Policy {
    /// Parse policy text. Returns `Err(message)` naming the first bad
    /// line; an empty (or all-comment) policy is valid and labels
    /// nothing.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut rules = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let trimmed = raw.split('#').next().unwrap_or("").trim();
            if trimmed.is_empty() {
                continue;
            }
            let mut parts = trimmed.split_whitespace();
            let (kind, glob, level) = (parts.next(), parts.next(), parts.next());
            if parts.next().is_some() {
                return Err(format!(
                    "policy line {line}: expected `conf|integ <glob> <level>`, got extra fields"
                ));
            }
            let (Some(kind), Some(glob), Some(level)) = (kind, glob, level) else {
                return Err(format!(
                    "policy line {line}: expected `conf|integ <glob> <level>`"
                ));
            };
            let kind = match kind {
                "conf" => LabelKind::Confidentiality,
                "integ" => LabelKind::Integrity,
                other => {
                    return Err(format!(
                        "policy line {line}: unknown label kind `{other}` (expected conf or integ)"
                    ))
                }
            };
            let level: u8 = level.parse().map_err(|_| {
                format!("policy line {line}: level `{level}` is not an integer in 0..=255")
            })?;
            rules.push(LabelRule {
                kind,
                glob: glob.to_string(),
                level,
                line,
            });
        }
        Ok(Policy { rules })
    }

    /// Highest matching confidentiality level for `path` (0 if unlabeled).
    pub fn conf(&self, path: &str) -> u8 {
        self.level_of(path, LabelKind::Confidentiality)
    }

    /// Highest matching integrity level for `path` (0 if unlabeled).
    pub fn integ(&self, path: &str) -> u8 {
        self.level_of(path, LabelKind::Integrity)
    }

    /// The rule that set `path`'s level for `kind`, if any (diagnostics
    /// cite the policy line).
    pub fn matching_rule(&self, path: &str, kind: LabelKind) -> Option<&LabelRule> {
        self.rules
            .iter()
            .filter(|r| r.kind == kind && glob_match(&r.glob, path))
            .max_by_key(|r| r.level)
    }

    fn level_of(&self, path: &str, kind: LabelKind) -> u8 {
        self.matching_rule(path, kind).map_or(0, |r| r.level)
    }

    /// Is a flow `source -> sink` permitted?
    ///
    /// Allowed iff `conf(source) <= conf(sink)` (no declassification) and
    /// `integ(source) >= integ(sink)` (no untrusted data into trusted
    /// files).
    pub fn allows(&self, source: &str, sink: &str) -> bool {
        self.conf(source) <= self.conf(sink) && self.integ(source) >= self.integ(sink)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn parse_and_levels() {
        let p = Policy::parse(
            "# demo\n\
             conf /pfs/secret/** 3\n\
             conf /pfs/** 1   # broader, lower\n\
             integ /pfs/in/** 2\n",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 3);
        assert_eq!(p.conf("/pfs/secret/key"), 3); // highest match wins
        assert_eq!(p.conf("/pfs/out/x"), 1);
        assert_eq!(p.conf("/scratch/x"), 0);
        assert_eq!(p.integ("/pfs/in/a"), 2);
        assert_eq!(
            p.matching_rule("/pfs/secret/key", LabelKind::Confidentiality)
                .unwrap()
                .line,
            2
        );
    }

    #[test]
    fn flow_rules() {
        let p = Policy::parse("conf /secret/** 2\ninteg /trusted/** 2\n").unwrap();
        // leak: high conf -> unlabeled sink
        assert!(!p.allows("/secret/a", "/public/b"));
        assert!(p.allows("/public/b", "/secret/a"));
        // taint: low integ -> trusted sink
        assert!(!p.allows("/public/b", "/trusted/c"));
        assert!(p.allows("/trusted/c", "/public/b"));
        // same labels both ways
        assert!(p.allows("/secret/a", "/secret/b"));
    }

    #[test]
    fn parse_errors_name_the_line() {
        assert!(Policy::parse("conf /x\n").unwrap_err().contains("line 1"));
        assert!(Policy::parse("\nweird /x 1\n")
            .unwrap_err()
            .contains("unknown label kind `weird`"));
        assert!(Policy::parse("conf /x nine\n")
            .unwrap_err()
            .contains("not an integer"));
        assert!(Policy::parse("conf /x 1 extra\n")
            .unwrap_err()
            .contains("extra fields"));
        assert!(Policy::parse("# only comments\n\n")
            .unwrap()
            .rules
            .is_empty());
    }
}
