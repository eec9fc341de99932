//! CSV import/export for relations — the bridge from this reproduction to
//! *real* data: dump any relation for inspection, or load a crawled
//! dataset (the paper's Yahoo Autos / UCI Census extracts were exactly
//! such files) into a [`Relation`] and run the full AIMQ pipeline on it.
//!
//! The format is RFC-4180-style: a header row of attribute names, comma
//! separators, optional double-quoted fields with `""` escaping, LF or
//! CRLF line endings. Empty fields are SQL NULL.

use std::fmt;
use std::io::{BufRead, Write};

use aimq_catalog::{Domain, Schema, Tuple, Value};

use crate::{Relation, RelationBuilder};

/// Errors raised while reading CSV into a relation.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The header row does not match the schema's attribute names.
    HeaderMismatch {
        /// Attribute names the schema declares.
        expected: Vec<String>,
        /// Names found in the file's header row.
        actual: Vec<String>,
    },
    /// A data row has the wrong number of fields.
    FieldCount {
        /// 1-based line number.
        line: usize,
        /// The schema's arity.
        expected: usize,
        /// Fields found on the line.
        actual: usize,
    },
    /// A numeric attribute holds an unparseable value.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The attribute's name.
        attribute: String,
        /// The unparseable text.
        value: String,
    },
    /// Structural CSV error (unterminated quote).
    UnterminatedQuote {
        /// 1-based line number.
        line: usize,
    },
    /// Tuple failed schema validation.
    Catalog(aimq_catalog::CatalogError),
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::HeaderMismatch { expected, actual } => {
                write!(f, "header {actual:?} does not match schema {expected:?}")
            }
            CsvError::FieldCount {
                line,
                expected,
                actual,
            } => {
                write!(f, "line {line}: expected {expected} fields, got {actual}")
            }
            CsvError::BadNumber {
                line,
                attribute,
                value,
            } => {
                write!(
                    f,
                    "line {line}: attribute {attribute} expects a number, got {value:?}"
                )
            }
            CsvError::UnterminatedQuote { line } => {
                write!(f, "line {line}: unterminated quoted field")
            }
            CsvError::Catalog(e) => write!(f, "invalid tuple: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

impl From<aimq_catalog::CatalogError> for CsvError {
    fn from(e: aimq_catalog::CatalogError) -> Self {
        CsvError::Catalog(e)
    }
}

/// Write `relation` as CSV (header + one row per tuple).
pub fn write_csv<W: Write>(relation: &Relation, out: &mut W) -> std::io::Result<()> {
    let schema = relation.schema();
    let header: Vec<String> = schema
        .attributes()
        .iter()
        .map(|a| escape(a.name()))
        .collect();
    writeln!(out, "{}", header.join(","))?;
    for tuple in relation.tuples() {
        let row: Vec<String> = tuple
            .values()
            .iter()
            .map(|v| match v {
                Value::Null => String::new(),
                Value::Cat(s) => escape(s),
                Value::Num(n) => {
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        format!("{}", *n as i64)
                    } else {
                        format!("{n}")
                    }
                }
            })
            .collect();
        writeln!(out, "{}", row.join(","))?;
    }
    Ok(())
}

/// Read CSV into a relation with the given schema. The header must list
/// the schema's attribute names in order.
pub fn read_csv<R: BufRead>(schema: &Schema, input: R) -> Result<Relation, CsvError> {
    let mut lines = input.lines();
    let header_line = match lines.next() {
        Some(l) => l?,
        None => {
            return Err(CsvError::HeaderMismatch {
                expected: attr_names(schema),
                actual: Vec::new(),
            })
        }
    };
    let header = parse_record(&header_line, 1)?;
    let expected = attr_names(schema);
    if header != expected {
        return Err(CsvError::HeaderMismatch {
            expected,
            actual: header,
        });
    }

    let mut builder: RelationBuilder = Relation::builder(schema.clone());
    for (i, line) in lines.enumerate() {
        let line_no = i.saturating_add(2); // 1-based, after the header
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let fields = parse_record(&line, line_no)?;
        if fields.len() != schema.arity() {
            return Err(CsvError::FieldCount {
                line: line_no,
                expected: schema.arity(),
                actual: fields.len(),
            });
        }
        let values: Vec<Value> = fields
            .into_iter()
            .enumerate()
            .map(|(col, field)| -> Result<Value, CsvError> {
                if field.is_empty() {
                    return Ok(Value::Null);
                }
                #[expect(
                    clippy::indexing_slicing,
                    reason = "col < arity: the record arity was just validated"
                )]
                let attr = &schema.attributes()[col];
                match attr.domain() {
                    Domain::Categorical => Ok(Value::Cat(field)),
                    Domain::Numeric => field.trim().parse::<f64>().map(Value::Num).map_err(|_| {
                        CsvError::BadNumber {
                            line: line_no,
                            attribute: attr.name().to_owned(),
                            value: field,
                        }
                    }),
                }
            })
            .collect::<Result<_, _>>()?;
        builder.push(&Tuple::new(schema, values)?)?;
    }
    Ok(builder.build())
}

fn attr_names(schema: &Schema) -> Vec<String> {
    schema
        .attributes()
        .iter()
        .map(|a| a.name().to_owned())
        .collect()
}

/// Quote a field when it contains separators, quotes or newlines.
fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Split one CSV record (no embedded newlines — relations never hold
/// multi-line values) into fields, honoring quotes.
fn parse_record(line: &str, line_no: usize) -> Result<Vec<String>, CsvError> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    let mut quoted_field = false;

    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
        } else {
            match c {
                ',' => {
                    fields.push(std::mem::take(&mut field));
                    quoted_field = false;
                }
                '"' if field.is_empty() && !quoted_field => {
                    in_quotes = true;
                    quoted_field = true;
                }
                '\r' => {} // tolerate CRLF
                other => field.push(other),
            }
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote { line: line_no });
    }
    fields.push(field);
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq_catalog::AttrId;
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::builder("CarDB")
            .categorical("Make")
            .categorical("Model")
            .numeric("Price")
            .build()
            .unwrap()
    }

    fn relation() -> Relation {
        let s = schema();
        let tuples = vec![
            Tuple::new(
                &s,
                vec![
                    Value::cat("Toyota"),
                    Value::cat("Camry"),
                    Value::num(10000.0),
                ],
            )
            .unwrap(),
            Tuple::new(
                &s,
                vec![
                    Value::cat("Ford"),
                    Value::cat("F-350, XL"),
                    Value::num(25000.5),
                ],
            )
            .unwrap(),
            Tuple::new(&s, vec![Value::Null, Value::cat("Say \"hi\""), Value::Null]).unwrap(),
        ];
        Relation::from_tuples(s, &tuples).unwrap()
    }

    #[test]
    fn round_trip_preserves_tuples() {
        let r = relation();
        let mut buf = Vec::new();
        write_csv(&r, &mut buf).unwrap();
        let back = read_csv(r.schema(), buf.as_slice()).unwrap();
        assert_eq!(
            r.tuples().collect::<Vec<_>>(),
            back.tuples().collect::<Vec<_>>()
        );
    }

    #[test]
    fn escaping_commas_and_quotes() {
        let r = relation();
        let mut buf = Vec::new();
        write_csv(&r, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"F-350, XL\""));
        assert!(text.contains("\"Say \"\"hi\"\"\""));
    }

    #[test]
    fn empty_fields_are_null() {
        let csv = "Make,Model,Price\n,Camry,\n";
        let r = read_csv(&schema(), csv.as_bytes()).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.value(0, AttrId(0)).is_null());
        assert!(r.value(0, AttrId(2)).is_null());
        assert_eq!(r.value(0, AttrId(1)), Value::cat("Camry"));
    }

    #[test]
    fn header_mismatch_rejected() {
        let csv = "Brand,Model,Price\nToyota,Camry,1\n";
        assert!(matches!(
            read_csv(&schema(), csv.as_bytes()),
            Err(CsvError::HeaderMismatch { .. })
        ));
    }

    #[test]
    fn bad_number_reported_with_location() {
        let csv = "Make,Model,Price\nToyota,Camry,cheap\n";
        match read_csv(&schema(), csv.as_bytes()) {
            Err(CsvError::BadNumber {
                line,
                attribute,
                value,
            }) => {
                assert_eq!(line, 2);
                assert_eq!(attribute, "Price");
                assert_eq!(value, "cheap");
            }
            other => panic!("expected BadNumber, got {other:?}"),
        }
    }

    #[test]
    fn field_count_mismatch_rejected() {
        let csv = "Make,Model,Price\nToyota,Camry\n";
        assert!(matches!(
            read_csv(&schema(), csv.as_bytes()),
            Err(CsvError::FieldCount {
                line: 2,
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn unterminated_quote_rejected() {
        let csv = "Make,Model,Price\n\"Toyota,Camry,1\n";
        assert!(matches!(
            read_csv(&schema(), csv.as_bytes()),
            Err(CsvError::UnterminatedQuote { line: 2 })
        ));
    }

    #[test]
    fn crlf_and_trailing_blank_lines_tolerated() {
        let csv = "Make,Model,Price\r\nToyota,Camry,9500\r\n\r\n";
        let r = read_csv(&schema(), csv.as_bytes()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, AttrId(2)), Value::num(9500.0));
    }

    proptest! {
        #[test]
        fn arbitrary_strings_round_trip(
            rows in prop::collection::vec((".{1,20}", ".{1,20}", -1e9f64..1e9), 0..25)
        ) {
            let s = schema();
            // Strip newlines: relations here are single-line records.
            let tuples: Vec<Tuple> = rows
                .iter()
                .map(|(a, b, n)| {
                    let clean = |x: &str| x.replace(['\n', '\r'], " ");
                    Tuple::new(
                        &s,
                        vec![Value::cat(clean(a)), Value::cat(clean(b)), Value::num(*n)],
                    )
                    .unwrap()
                })
                .collect();
            let r = Relation::from_tuples(s.clone(), &tuples).unwrap();
            let mut buf = Vec::new();
            write_csv(&r, &mut buf).unwrap();
            let back = read_csv(&s, buf.as_slice()).unwrap();
            prop_assert_eq!(
                r.tuples().collect::<Vec<_>>(),
                back.tuples().collect::<Vec<_>>()
            );
        }
    }
}
