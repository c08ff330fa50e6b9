//! Minimal absolute-path handling for the simulated VFS.
//!
//! Simulated paths are `/`-separated UTF-8 strings. We deliberately do not
//! reuse `std::path::Path` (whose semantics are host-OS dependent); the
//! simulation needs one fixed, predictable behaviour everywhere.

/// Normalize a path: force a leading `/`, collapse `//` and `.`, resolve
/// `..` lexically (never above the root). An empty input becomes `/`.
pub fn normalize(path: &str) -> String {
    let mut out: Vec<&str> = Vec::new();
    for comp in path.split('/') {
        match comp {
            "" | "." => {}
            ".." => {
                out.pop();
            }
            c => out.push(c),
        }
    }
    if out.is_empty() {
        "/".to_string()
    } else {
        let mut s = String::with_capacity(path.len() + 1);
        for c in &out {
            s.push('/');
            s.push_str(c);
        }
        s
    }
}

/// Split a normalized path into components (no empty strings).
pub fn components(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').filter(|c| !c.is_empty() && *c != ".")
}

/// Split into `(parent, file_name)`. Returns `None` for the root.
pub fn split_parent(path: &str) -> Option<(String, &str)> {
    let norm_len = path.len();
    debug_assert!(path.starts_with('/'), "expected normalized path");
    if norm_len <= 1 {
        return None;
    }
    let idx = path.rfind('/').unwrap();
    let name = &path[idx + 1..];
    let parent = if idx == 0 {
        "/".to_string()
    } else {
        path[..idx].to_string()
    };
    Some((parent, name))
}

/// Join a normalized directory and a relative name.
pub fn join(dir: &str, name: &str) -> String {
    if dir == "/" {
        format!("/{name}")
    } else {
        format!("{dir}/{name}")
    }
}

/// If `path` lies under `prefix` (both normalized), return the remainder as
/// an absolute path (`/` when equal). `/` is a prefix of everything.
pub fn strip_prefix<'a>(path: &'a str, prefix: &str) -> Option<&'a str> {
    if prefix == "/" {
        return Some(path);
    }
    let rest = path.strip_prefix(prefix)?;
    if rest.is_empty() {
        Some("/")
    } else if rest.starts_with('/') {
        Some(rest)
    } else {
        None // e.g. prefix=/mnt/a, path=/mnt/ab
    }
}

/// Shell-style glob match supporting `*` (any run, not crossing `/`),
/// `**` (any run including `/`) and `?` (one non-`/` char). Used by the
/// Tracefs granularity filter language and by provenance policy files.
/// Literals and `?` advance in a loop; only a star recurses, once per
/// stop point it tries, shortest first. Allocates nothing.
pub fn glob_match(pattern: &str, path: &str) -> bool {
    let mut pat = pattern.chars();
    let mut rest = path;
    while let Some(c) = pat.next() {
        match c {
            '*' => {
                let after = pat.as_str();
                let (double, after) = match after.strip_prefix('*') {
                    Some(a) => (true, a),
                    None => (false, after),
                };
                let mut stop = rest;
                loop {
                    if glob_match(after, stop) {
                        return true;
                    }
                    let mut chars = stop.chars();
                    match chars.next() {
                        Some('/') if !double => return false,
                        Some(_) => stop = chars.as_str(),
                        None => return false,
                    }
                }
            }
            '?' => {
                let mut chars = rest.chars();
                match chars.next() {
                    Some(ch) if ch != '/' => rest = chars.as_str(),
                    _ => return false,
                }
            }
            c => match rest.strip_prefix(c) {
                Some(r) => rest = r,
                None => return false,
            },
        }
    }
    rest.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_basics() {
        assert_eq!(normalize(""), "/");
        assert_eq!(normalize("/"), "/");
        assert_eq!(normalize("a/b"), "/a/b");
        assert_eq!(normalize("/a//b/"), "/a/b");
        assert_eq!(normalize("/a/./b"), "/a/b");
        assert_eq!(normalize("/a/../b"), "/b");
        assert_eq!(normalize("/../../x"), "/x");
    }

    #[test]
    fn split_parent_cases() {
        assert_eq!(split_parent("/"), None);
        assert_eq!(split_parent("/a"), Some(("/".to_string(), "a")));
        assert_eq!(split_parent("/a/b/c"), Some(("/a/b".to_string(), "c")));
    }

    #[test]
    fn join_cases() {
        assert_eq!(join("/", "x"), "/x");
        assert_eq!(join("/a", "x"), "/a/x");
    }

    #[test]
    fn strip_prefix_cases() {
        assert_eq!(strip_prefix("/a/b", "/a"), Some("/b"));
        assert_eq!(strip_prefix("/a", "/a"), Some("/"));
        assert_eq!(strip_prefix("/ab", "/a"), None);
        assert_eq!(strip_prefix("/x/y", "/"), Some("/x/y"));
        assert_eq!(strip_prefix("/x", "/y"), None);
    }

    #[test]
    fn glob_star_does_not_cross_slash() {
        assert!(glob_match("/data/*.out", "/data/run1.out"));
        assert!(!glob_match("/data/*.out", "/data/sub/run1.out"));
        assert!(glob_match("/data/**/*.out", "/data/sub/deep/run1.out"));
        assert!(glob_match("/data/**", "/data/anything/at/all"));
        assert!(glob_match("file?.txt", "file1.txt"));
        assert!(!glob_match("file?.txt", "file12.txt"));
        assert!(glob_match("*", "abc"));
        assert!(!glob_match("*", "a/b"));
        assert!(glob_match("**", "a/b"));
        assert!(glob_match("/pfs/*.dat", "/pfs/a.dat"));
        assert!(!glob_match("/pfs/*.dat", "/pfs/sub/a.dat"));
        assert!(glob_match("/pfs/**.dat", "/pfs/sub/a.dat"));
        assert!(glob_match("/pfs/**", "/pfs/a/b/c"));
        assert!(glob_match("/pfs/?.dat", "/pfs/a.dat"));
        assert!(!glob_match("/pfs/?.dat", "/pfs/ab.dat"));
        assert!(!glob_match("/pfs/*", "/other"));
        assert!(glob_match("**", "/anything/at/all"));
    }

    /// `?` takes one whole char, however many bytes it is.
    #[test]
    fn glob_question_mark_takes_one_char() {
        assert!(glob_match("/d/?.dat", "/d/é.dat"));
        assert!(!glob_match("/d/?.dat", "/d/éé.dat"));
        assert!(glob_match("/d/??.dat", "/d/éa.dat"));
        assert!(glob_match("/d/*é?", "/d/xéy"));
        assert!(!glob_match("/d/?", "/d//"));
    }

    #[test]
    fn components_iteration() {
        let v: Vec<&str> = components("/a/b/c").collect();
        assert_eq!(v, vec!["a", "b", "c"]);
        assert_eq!(components("/").count(), 0);
    }
}
