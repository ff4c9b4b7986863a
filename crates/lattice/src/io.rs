//! Plain-text cover serialization.
//!
//! Profiled metadata outlives processes: a nightly job discovers the
//! FDs, a monitoring service bootstraps DynFD from them
//! ([`DynFd::with_cover`](../dynfd_core/struct.DynFd.html#method.with_cover)
//! exists for exactly this). The format is the one FD papers print —
//! one dependency per line, column *names* joined by commas:
//!
//! ```text
//! zip -> city
//! firstname,city -> zip
//! [] -> country        # empty LHS (constant column)
//! ```
//!
//! Lines starting with `#` and blank lines are ignored. Column names
//! are resolved against a [`Schema`], so files survive column
//! reordering as long as names are stable.

use crate::FdTree;
use dynfd_common::{AttrSet, DynError, Result, Schema};
use std::fmt::Write as _;
use std::path::Path;

/// Marker used for an empty left-hand side.
const EMPTY_LHS: &str = "[]";

/// Serializes a cover, one `lhs -> rhs` line per FD, deterministic
/// order.
pub fn write_cover(fds: &FdTree, schema: &Schema) -> String {
    let mut out = String::new();
    for fd in fds.all_fds() {
        if fd.lhs.is_empty() {
            let _ = write!(out, "{EMPTY_LHS}");
        } else {
            for (i, a) in fd.lhs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", schema.column_name(a));
            }
        }
        let _ = writeln!(out, " -> {}", schema.column_name(fd.rhs));
    }
    out
}

/// Parses a cover serialized by [`write_cover`] (or written by hand).
///
/// # Errors
///
/// Fails on unknown column names, missing `->`, trivial FDs
/// (`rhs ∈ lhs`), and duplicate entries.
pub fn read_cover(text: &str, schema: &Schema) -> Result<FdTree> {
    let mut fds = FdTree::new();
    for (line_no, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (lhs_text, rhs_text) = line
            .split_once("->")
            .ok_or_else(|| DynError::Parse(format!("line {}: missing '->'", line_no + 1)))?;
        let rhs_name = rhs_text.trim();
        let rhs = schema.column_index(rhs_name).ok_or_else(|| {
            DynError::Parse(format!("line {}: unknown column {rhs_name:?}", line_no + 1))
        })?;
        let lhs_text = lhs_text.trim();
        let mut lhs = AttrSet::empty();
        if lhs_text != EMPTY_LHS {
            for name in lhs_text.split(',') {
                let name = name.trim();
                let attr = schema.column_index(name).ok_or_else(|| {
                    DynError::Parse(format!("line {}: unknown column {name:?}", line_no + 1))
                })?;
                lhs.insert(attr);
            }
        }
        if lhs.contains(rhs) {
            return Err(DynError::Parse(format!(
                "line {}: trivial FD ({rhs_name:?} appears on both sides)",
                line_no + 1
            )));
        }
        if !fds.add(lhs, rhs) {
            return Err(DynError::Parse(format!(
                "line {}: duplicate FD",
                line_no + 1
            )));
        }
    }
    Ok(fds)
}

/// Serializes a cover and writes it to `path`, surfacing file-system
/// failures as the typed [`DynError::Io`].
pub fn write_cover_file(path: &Path, fds: &FdTree, schema: &Schema) -> Result<()> {
    std::fs::write(path, write_cover(fds, schema))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynfd_common::Fd;

    fn schema() -> Schema {
        Schema::of("people", &["firstname", "lastname", "zip", "city"])
    }

    fn s(attrs: &[usize]) -> AttrSet {
        attrs.iter().copied().collect()
    }

    #[test]
    fn roundtrip() {
        let fds: FdTree = [
            Fd::new(s(&[2]), 3),
            Fd::new(s(&[0, 3]), 2),
            Fd::new(AttrSet::empty(), 1),
        ]
        .into_iter()
        .collect();
        let text = write_cover(&fds, &schema());
        let back = read_cover(&text, &schema()).unwrap();
        assert_eq!(back, fds);
    }

    #[test]
    fn format_is_human_readable() {
        let fds: FdTree = [Fd::new(s(&[0, 3]), 2)].into_iter().collect();
        assert_eq!(write_cover(&fds, &schema()), "firstname,city -> zip\n");
    }

    #[test]
    fn comments_blanks_and_whitespace() {
        let text = "\n# a comment\n  zip ->   city  # trailing\n\n[] -> lastname\n";
        let fds = read_cover(text, &schema()).unwrap();
        assert!(fds.contains(s(&[2]), 3));
        assert!(fds.contains(AttrSet::empty(), 1));
        assert_eq!(fds.len(), 2);
    }

    #[test]
    fn unknown_column_rejected() {
        let err = read_cover("zip -> nope\n", &schema()).unwrap_err();
        assert!(err.to_string().contains("nope"));
        let err = read_cover("ghost -> city\n", &schema()).unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(
            read_cover("zip city\n", &schema()).is_err(),
            "missing arrow"
        );
        assert!(read_cover("zip -> zip\n", &schema()).is_err(), "trivial");
        assert!(
            read_cover("zip -> city\nzip -> city\n", &schema()).is_err(),
            "duplicate"
        );
    }

    #[test]
    fn survives_column_reordering() {
        let original = schema();
        let fds: FdTree = [Fd::new(s(&[2]), 3)].into_iter().collect(); // zip -> city
        let text = write_cover(&fds, &original);
        // Same columns, different order.
        let reordered = Schema::of("people", &["city", "zip", "firstname", "lastname"]);
        let back = read_cover(&text, &reordered).unwrap();
        assert!(back.contains(AttrSet::single(1), 0)); // zip (1) -> city (0)
    }
}
