//! Change-log ingestion.
//!
//! [`parse_changelog`] reads a line-oriented text format for externally
//! recorded change histories (the role the paper's extracted
//! MusicBrainz/Wikipedia/TSA histories play), and [`write_changelog`]
//! writes it back. The paper processes such a stream "in batches ...
//! e.g., equally sized groups of change operations" (Section 2);
//! [`Batch::chunk`](crate::Batch::chunk) cuts the parsed operations
//! into those groups.
//!
//! ## Change-log format
//!
//! One operation per line, fields separated by `|` (values may contain
//! commas; a literal `|` in a value is escaped as `\|`, a literal `\`
//! as `\\`):
//!
//! ```text
//! # comment
//! I|Max|Jones|14482|Potsdam       insert a row
//! D|3                             delete record id 3
//! U|7|Max|Miller|10115|Berlin     update record id 7 to the new row
//! ```

use crate::batch::ChangeOp;
use dynfd_common::{DynError, RecordId, Result};

/// Parses a change log in the format documented at module level.
///
/// `arity` is the relation's column count; every insert/update row is
/// checked against it up front so malformed logs fail before anything
/// is applied.
pub fn parse_changelog(text: &str, arity: usize) -> Result<Vec<ChangeOp>> {
    let mut ops = Vec::new();
    for (line_no, raw) in text.lines().enumerate() {
        // Values may carry significant leading/trailing whitespace, so
        // only a trailing CR (CRLF logs) is stripped; comment/blank
        // detection works on a trimmed view.
        let line = raw.strip_suffix('\r').unwrap_or(raw);
        let probe = line.trim();
        if probe.is_empty() || probe.starts_with('#') {
            continue;
        }
        let fields = split_fields(line, line_no + 1)?;
        let op = match fields[0].as_str() {
            "I" => {
                let row = fields[1..].to_vec();
                check_arity(&row, arity, line_no + 1)?;
                ChangeOp::Insert(row)
            }
            "D" => {
                if fields.len() != 2 {
                    return Err(DynError::Parse(format!(
                        "line {}: D takes exactly one record id",
                        line_no + 1
                    )));
                }
                ChangeOp::Delete(parse_rid(&fields[1], line_no + 1)?)
            }
            "U" => {
                if fields.len() < 2 {
                    return Err(DynError::Parse(format!(
                        "line {}: U needs a record id and a row",
                        line_no + 1
                    )));
                }
                let rid = parse_rid(&fields[1], line_no + 1)?;
                let row = fields[2..].to_vec();
                check_arity(&row, arity, line_no + 1)?;
                ChangeOp::Update(rid, row)
            }
            other => {
                return Err(DynError::Parse(format!(
                    "line {}: unknown op code {other:?} (expected I, D, or U)",
                    line_no + 1
                )))
            }
        };
        ops.push(op);
    }
    Ok(ops)
}

/// Serializes operations back into the change-log format (inverse of
/// [`parse_changelog`]).
pub fn write_changelog(ops: &[ChangeOp]) -> String {
    let mut out = String::new();
    let esc = |v: &str| v.replace('\\', "\\\\").replace('|', "\\|");
    for op in ops {
        match op {
            ChangeOp::Insert(row) => {
                out.push('I');
                for v in row {
                    out.push('|');
                    out.push_str(&esc(v));
                }
            }
            ChangeOp::Delete(rid) => {
                out.push_str(&format!("D|{}", rid.raw()));
            }
            ChangeOp::Update(rid, row) => {
                out.push_str(&format!("U|{}", rid.raw()));
                for v in row {
                    out.push('|');
                    out.push_str(&esc(v));
                }
            }
        }
        out.push('\n');
    }
    out
}

fn split_fields(line: &str, line_no: usize) -> Result<Vec<String>> {
    let mut fields = vec![String::new()];
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some(e @ ('|' | '\\')) => fields.last_mut().expect("non-empty").push(e),
                _ => {
                    return Err(DynError::Parse(format!(
                        "line {line_no}: dangling escape character"
                    )))
                }
            },
            '|' => fields.push(String::new()),
            _ => fields.last_mut().expect("non-empty").push(c),
        }
    }
    Ok(fields)
}

fn parse_rid(text: &str, line_no: usize) -> Result<RecordId> {
    text.trim()
        .parse::<u64>()
        .map(RecordId)
        .map_err(|_| DynError::Parse(format!("line {line_no}: bad record id {text:?}")))
}

fn check_arity(row: &[String], arity: usize, line_no: usize) -> Result<()> {
    if row.len() == arity {
        Ok(())
    } else {
        Err(DynError::Parse(format!(
            "line {line_no}: row has {} values, schema has {arity}",
            row.len()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let ops = vec![
            ChangeOp::Insert(vec!["Max".into(), "Jones".into()]),
            ChangeOp::Delete(RecordId(3)),
            ChangeOp::Update(RecordId(7), vec!["Max".into(), "Miller".into()]),
        ];
        let text = write_changelog(&ops);
        assert_eq!(parse_changelog(&text, 2).unwrap(), ops);
    }

    #[test]
    fn escapes_in_values() {
        let ops = vec![ChangeOp::Insert(vec!["a|b".into(), "c\\d".into()])];
        let text = write_changelog(&ops);
        assert_eq!(text, "I|a\\|b|c\\\\d\n");
        assert_eq!(parse_changelog(&text, 2).unwrap(), ops);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# history\n\nI|x|y\n  \nD|0\n";
        let ops = parse_changelog(text, 2).unwrap();
        assert_eq!(ops.len(), 2);
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(parse_changelog("X|a|b\n", 2).is_err(), "unknown op");
        assert!(parse_changelog("I|only-one\n", 2).is_err(), "arity");
        assert!(parse_changelog("D|notanumber\n", 2).is_err(), "bad id");
        assert!(parse_changelog("D|1|2\n", 2).is_err(), "extra field");
        assert!(parse_changelog("U|5\n", 2).is_err(), "missing row");
        assert!(parse_changelog("I|a|b\\\n", 2).is_err(), "dangling escape");
    }
}
