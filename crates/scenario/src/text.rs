//! Line-based text encoding of a scenario (`manet-scenario/1`).
//!
//! The format is deliberately diff-friendly: one declaration per line,
//! `#` comments, blank lines ignored. The first significant line must be
//! the schema identifier. Directives:
//!
//! ```text
//! manet-scenario/1
//! name churn_quick
//! hosts 100
//! at 12.5 leave 5
//! at 14 join 5
//! at 8 crash 7
//! at 20.25 recover 7
//! from 5 until 15 blackout 3 9
//! from 5 until 15 noise 0.25
//! from 30 until 60 partition 0 0 1000 2500
//! ```
//!
//! Times are decimal seconds with at most nine fractional digits, parsed
//! exactly (digit by digit, not through `f64`) so that serialize → parse
//! round-trips to the same nanosecond value.

use manet_sim_engine::{SimDuration, SimTime};

use crate::{ChurnKind, LinkBlackout, NoiseBurst, Partition, Region, Scenario, ScenarioError};

/// A token plus its 1-based character column in the source line.
#[derive(Clone, Copy)]
pub(crate) struct Field<'a> {
    pub(crate) col: usize,
    pub(crate) text: &'a str,
}

/// The whitespace-separated tokens of the code portion of a line (comment
/// stripped), each tagged with its 1-based character column in the
/// original line. Lazy and linear: a line of many tokens is walked once,
/// never collected.
pub(crate) fn fields_with_cols(code: &str) -> impl Iterator<Item = Field<'_>> {
    let (mut seen, mut col) = (0, 1);
    code.split_whitespace().map(move |text| {
        // A token is a subslice of `code`: its offset is the pointer gap.
        let byte = text.as_ptr() as usize - code.as_ptr() as usize;
        col += code[seen..byte].chars().count();
        seen = byte;
        Field { col, text }
    })
}

/// No directive has more than nine fields; a tenth only shows that a line
/// has too many, so no more are collected.
const MAX_FIELDS: usize = 10;

/// Parses the text encoding.
pub(crate) fn parse_scenario(input: &str) -> Result<Scenario, ScenarioError> {
    let mut scenario = Scenario::new("scenario");
    let mut saw_schema = false;
    for (index, raw) in input.lines().enumerate() {
        let line_no = index + 1;
        let code = match raw.find('#') {
            Some(at) => &raw[..at],
            None => raw,
        };
        let fields: Vec<Field<'_>> = fields_with_cols(code).take(MAX_FIELDS).collect();
        let Some(&first) = fields.first() else {
            continue;
        };
        let refuse = |col, message: String| Err(ScenarioError::at(line_no, col, message));
        let usage = |usage: &str| refuse(first.col, format!("usage: {usage}"));
        if !saw_schema {
            let line = code.trim();
            if line != crate::SCHEMA {
                let schema = crate::SCHEMA;
                return refuse(
                    first.col,
                    format!("expected schema header {schema:?}, got {}", quote(line)),
                );
            }
            saw_schema = true;
            continue;
        }
        match first.text {
            "name" => {
                let [_, name] = fields[..] else {
                    return usage("name <token>");
                };
                scenario.name = name.text.to_string();
            }
            "hosts" => {
                let [_, count] = fields[..] else {
                    return usage("hosts <count>");
                };
                scenario.hosts = Some(parse_u32(count, line_no)?);
            }
            "at" => {
                let [_, at, kind, host] = fields[..] else {
                    return usage("at <time> <join|leave|crash|recover> <host>");
                };
                let Some(churn_kind) = ChurnKind::from_label(kind.text) else {
                    return refuse(kind.col, format!("unknown churn kind {}", quote(kind.text)));
                };
                scenario.churn.push(crate::ChurnEvent {
                    at: parse_time(at, line_no)?,
                    kind: churn_kind,
                    host: parse_u32(host, line_no)?,
                });
            }
            "from" => {
                if fields.len() < 5 || fields[2].text != "until" {
                    return usage("from <time> until <time> <blackout|noise|partition> ...");
                }
                let from = parse_time(fields[1], line_no)?;
                let until = parse_time(fields[3], line_no)?;
                match (fields[4].text, &fields[5..]) {
                    ("blackout", [a, b]) => scenario.blackouts.push(LinkBlackout {
                        from,
                        until,
                        a: parse_u32(*a, line_no)?,
                        b: parse_u32(*b, line_no)?,
                    }),
                    ("noise", [p]) => scenario.noise.push(NoiseBurst {
                        from,
                        until,
                        drop_probability: parse_f64(*p, line_no)?,
                    }),
                    ("partition", [x0, y0, x1, y1]) => scenario.partitions.push(Partition {
                        from,
                        until,
                        region: Region {
                            x0: parse_f64(*x0, line_no)?,
                            y0: parse_f64(*y0, line_no)?,
                            x1: parse_f64(*x1, line_no)?,
                            y1: parse_f64(*y1, line_no)?,
                        },
                    }),
                    (fault, operands) => {
                        let fault = format!("bad fault window: {}", quote(fault));
                        return refuse(
                            fields[4].col,
                            match fields.len() {
                                MAX_FIELDS => format!("{fault} with too many operands"),
                                _ => format!("{fault} with {} operand(s)", operands.len()),
                            },
                        );
                    }
                }
            }
            directive => {
                return refuse(first.col, format!("unknown directive {}", quote(directive)));
            }
        }
    }
    if !saw_schema {
        return Err(ScenarioError::new(format!(
            "empty scenario: missing schema header {:?}",
            crate::SCHEMA
        )));
    }
    Ok(scenario)
}

/// Renders the canonical text encoding. Numbers are `f64` `Display`,
/// which is shortest-round-trip: parsing recovers the exact bits.
pub(crate) fn render_scenario(scenario: &Scenario) -> String {
    let mut out = format!("{}\nname {}\n", crate::SCHEMA, scenario.name);
    if let Some(hosts) = scenario.hosts {
        out += &format!("hosts {hosts}\n");
    }
    let window = |from, until| format!("from {} until {}", render_time(from), render_time(until));
    for e in &scenario.churn {
        out += &format!("at {} {} {}\n", render_time(e.at), e.kind.label(), e.host);
    }
    for w in &scenario.blackouts {
        out += &format!("{} blackout {} {}\n", window(w.from, w.until), w.a, w.b);
    }
    for b in &scenario.noise {
        out += &format!("{} noise {}\n", window(b.from, b.until), b.drop_probability);
    }
    for w in &scenario.partitions {
        let (r, at) = (w.region, window(w.from, w.until));
        out += &format!("{at} partition {} {} {} {}\n", r.x0, r.y0, r.x1, r.y1);
    }
    out
}

/// Parses a time token as exact decimal seconds
/// ([`SimDuration::from_decimal_secs`]).
fn parse_time(field: Field<'_>, line_no: usize) -> Result<SimTime, ScenarioError> {
    SimDuration::from_decimal_secs(field.text)
        .map(|d| SimTime::ZERO + d)
        .map_err(|why| {
            let message = format!("bad time {}: {why}", quote(field.text));
            ScenarioError::at(line_no, field.col, message)
        })
}

/// Renders a [`SimTime`] as exact decimal seconds, so [`parse_time`]
/// recovers the nanosecond value.
pub(crate) fn render_time(at: SimTime) -> String {
    (at - SimTime::ZERO).decimal_secs()
}

/// A token as an error message quotes it: `{:?}`-escaped, and cut after
/// its first 32 characters, so a hostile token of any length or any
/// control bytes makes a message of at most a few hundred bytes.
pub fn quote(token: &str) -> String {
    const SHOWN: usize = 32;
    match token.char_indices().nth(SHOWN) {
        Some((cut, _)) => format!("{:?}...", &token[..cut]),
        None => format!("{token:?}"),
    }
}

fn parse_u32(field: Field<'_>, line_no: usize) -> Result<u32, ScenarioError> {
    field.text.parse().map_err(|_| {
        ScenarioError::at(
            line_no,
            field.col,
            format!("bad integer {}", quote(field.text)),
        )
    })
}

fn parse_f64(field: Field<'_>, line_no: usize) -> Result<f64, ScenarioError> {
    match field.text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(ScenarioError::at(
            line_no,
            field.col,
            format!("bad number {}", quote(field.text)),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok(text: &str) -> Field<'_> {
        Field { col: 4, text }
    }

    #[test]
    fn time_round_trips_exactly() {
        for nanos in [0, 1, 999_999_999, 12_500_000_000, 3_000_000_001] {
            let at = SimTime::from_nanos(nanos);
            assert_eq!(parse_time(tok(&render_time(at)), 1).unwrap(), at);
        }
        assert_eq!(render_time(SimTime::from_nanos(12_500_000_000)), "12.5");
        assert_eq!(
            parse_time(tok("0.000000001"), 1).unwrap(),
            SimTime::from_nanos(1)
        );
    }

    #[test]
    fn bad_times_are_rejected_with_line_and_column() {
        for bad in ["", ".", "1.", ".5", "-1", "1e3", "1.0000000001", "x"] {
            let err = parse_time(tok(bad), 7).unwrap_err();
            assert_eq!(err.line, Some(7), "{bad:?} should fail with a line tag");
            assert_eq!(err.column, Some(4), "{bad:?} should carry the token column");
        }
    }

    #[test]
    fn errors_point_at_the_offending_token() {
        // "at 1 flee 0": the unknown churn kind starts at column 6.
        let err = parse_scenario("manet-scenario/1\nat 1 flee 0\n").unwrap_err();
        assert_eq!((err.line, err.column), (Some(2), Some(6)));
        assert!(err.to_string().starts_with("line 2, column 6:"), "{err}");

        // Bad time token in a fault window: "from" at 1, "2x" at 6.
        let err = parse_scenario("manet-scenario/1\nfrom 2x until 9 noise 0.5\n").unwrap_err();
        assert_eq!((err.line, err.column), (Some(2), Some(6)));

        // Indented directive: the column tracks the real position.
        let err = parse_scenario("manet-scenario/1\n   bogus 1\n").unwrap_err();
        assert_eq!((err.line, err.column), (Some(2), Some(4)));
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let s = parse_scenario(
            "# leading comment\n\nmanet-scenario/1\nname t # trailing\n\nat 1 leave 0 # bye\n",
        )
        .unwrap();
        assert_eq!(s.name, "t");
        assert_eq!(s.churn.len(), 1);
    }

    #[test]
    fn missing_or_wrong_header_fails() {
        assert!(parse_scenario("").is_err());
        let err = parse_scenario("manet-scenario/2\n").unwrap_err();
        assert_eq!(err.line, Some(1));
        // There is no second, brace-opened encoding: such a document
        // fails the header check like any other text.
        let braced = "{\"schema\": \"manet-scenario/1\", \"name\": \"demo\"}";
        let err = crate::Scenario::parse(braced).unwrap_err();
        assert_eq!(err.line, Some(1));
        assert!(err.message.contains("expected schema header"), "{err}");
    }

    #[test]
    fn unknown_directive_reports_line() {
        let err = parse_scenario("manet-scenario/1\nfoo bar\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.message.contains("foo"));
    }

    #[test]
    fn malformed_fault_window_fails() {
        let err = parse_scenario("manet-scenario/1\nfrom 1 until 2 blackout 3\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        let err = parse_scenario("manet-scenario/1\nfrom 1 til 2 noise 0.5\n").unwrap_err();
        assert_eq!(err.line, Some(2));
        // Fields past the tenth are not collected, so no count is claimed.
        let err =
            parse_scenario("manet-scenario/1\nfrom 1 until 2 noise 1 2 3 4 5 6 7\n").unwrap_err();
        assert!(err.message.ends_with("with too many operands"), "{err}");
    }
}
