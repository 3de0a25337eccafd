//! The three text parsers on arbitrary text. A snapshot or trace header
//! is a config's text, a scenario's included, so `SimConfig::from_text`
//! and `Scenario::parse` read whatever a file holds; `CampaignSpec::parse`
//! reads whatever a client is handed. None may panic, and none may ask
//! the allocator for a block out of proportion to its input, measured
//! with the counting allocator.

use broadcast_core::{SchemeSpec, SimConfig};
use manet_scenario::{CampaignSpec, JobSpec, Scenario, MAX_CAMPAIGN_JOBS};
use manet_testkit::{prop_check, CountingAlloc, Gen};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The largest single request may be this many times the input.
const BYTES_PER_INPUT_BYTE: usize = 8;

/// What any parse may ask for whatever its input: an error message, the
/// first growth steps of a name or a list.
const FLOOR: usize = 512;

/// Tokens the grammars use, the edges of every number they parse, and
/// characters they do not expect.
const TOKENS: &[&str] = &[
    "manet-scenario/1",
    "manet-campaign/1",
    "name",
    "hosts",
    "at",
    "from",
    "until",
    "join",
    "leave",
    "crash",
    "recover",
    "blackout",
    "noise",
    "partition",
    "defaults",
    "job",
    "sweep",
    "scheme=ac",
    "map=3",
    "hosts=0",
    "seed=7",
    "repeats=2",
    "label=x",
    "label=..",
    "seeds=0..3",
    "seeds=5..=5",
    "seeds=9..2",
    "seeds=0..18446744073709551615",
    "scenario=s.txt",
    "map=3 hosts=100 scheme=ac hello=1 mobility=turn speed=paper placement=uniform",
    "capture=none drop=0 broadcasts=100 interarrival=2 warmup=5 grace=5 seed=1",
    "scheme=ac:4,12,convex",
    "scheme=ac:ramp4294967295",
    "scheme=ac:to4294967295",
    "scheme=al:6,12",
    "scheme=location:0.0469",
    "scheme=location:",
    "hello=dynamic:0.02,1,10",
    "hello=0.000000001",
    "placement=line:40",
    "capture=10,4",
    "speed=1e308",
    "=",
    "0",
    "1",
    "12.5",
    "0.000000001",
    "1.0000000001",
    "18446744073709551615",
    "18446744073709551616",
    "4294967296",
    "-0",
    "nan",
    "inf",
    "1e308",
    "#",
    "\u{1}",
    "\u{feff}",
    "é",
    "\r",
];

/// Lines of grammar tokens, single raw bytes and long runs of one token,
/// decoded lossily.
fn any_text(g: &mut Gen) -> String {
    let mut bytes = Vec::new();
    if g.u32_in(0..4) != 0 {
        bytes.extend_from_slice(TOKENS[g.usize_in(0..2)].as_bytes());
        bytes.push(b'\n');
    }
    any_lines(g, &mut bytes);
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Appends lines of grammar tokens, single raw bytes and long runs of one
/// token.
fn any_lines(g: &mut Gen, bytes: &mut Vec<u8>) {
    for _ in 0..g.usize_in(0..12) {
        for _ in 0..g.usize_in(0..10) {
            let token = TOKENS[g.usize_in(0..TOKENS.len())];
            match g.u32_in(0..10) {
                0 => bytes.push(g.u32_in(0..256) as u8),
                1 => {
                    for _ in 0..g.usize_in(1..400) {
                        bytes.extend_from_slice(token.as_bytes());
                        bytes.push(b' ');
                    }
                }
                _ => bytes.extend_from_slice(token.as_bytes()),
            }
            bytes.push(if g.u32_in(0..8) == 0 { b'\t' } else { b' ' });
        }
        bytes.push(b'\n');
    }
}

/// A config's text: a real one, or arbitrary lines, either cut at a random
/// byte, and once in eight a 1 MiB token of control bytes on the key line.
fn any_config_text(g: &mut Gen) -> String {
    let mut bytes = Vec::new();
    if g.bool() {
        let scheme = SchemeSpec::parse("ac:4,12,convex").unwrap();
        let config = SimConfig::builder(g.u32_in(1..12), scheme).build();
        bytes.extend_from_slice(config.to_text().as_bytes());
        bytes.truncate(g.usize_in(0..bytes.len() + 1));
    }
    if g.u32_in(0..8) == 0 {
        let key = [&b"scheme="[..], b"hello=", b"", b"map="][g.usize_in(0..4)];
        bytes.extend_from_slice(key);
        bytes.extend(std::iter::repeat_n(1 + g.u32_in(0..31) as u8, 1 << 20));
        bytes.push(b' ');
    }
    any_lines(g, &mut bytes);
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The jobs a campaign text spells: one per `job` line, one per seed of
/// each `sweep` range. They are the parser's output, so their list may
/// take what it needs beside the input's bound.
fn jobs_spelled(text: &str) -> usize {
    let mut jobs = 0u64;
    for line in text.lines() {
        let code = line.split('#').next().unwrap_or_default();
        let mut fields = code.split_whitespace();
        match fields.next() {
            Some("job") => jobs = jobs.saturating_add(1),
            Some("sweep") => {
                for range in fields.filter_map(|field| field.strip_prefix("seeds=")) {
                    let Some((lo, hi)) = range.split_once("..") else {
                        continue;
                    };
                    let (hi, inclusive) = hi.strip_prefix('=').map_or((hi, 0), |hi| (hi, 1));
                    if let (Ok(lo), Ok(hi)) = (lo.parse::<u64>(), hi.parse::<u64>()) {
                        jobs = jobs.saturating_add(hi.saturating_add(inclusive).saturating_sub(lo));
                    }
                }
            }
            _ => {}
        }
    }
    usize::try_from(jobs).map_or(MAX_CAMPAIGN_JOBS, |jobs| jobs.min(MAX_CAMPAIGN_JOBS))
}

fn assert_bounded(parser: &str, text: &str, largest: usize, limit: usize) {
    let shown: String = text.chars().take(2_000).collect();
    assert!(
        largest <= limit,
        "{parser} asked for {largest} bytes at once from {} (limit {limit}): {shown:?}",
        text.len()
    );
}

prop_check! {
    /// `SimConfig::from_text` on arbitrary text, a real config's cut at any
    /// byte and a 1 MiB token of control bytes included: `Ok` or `Err`,
    /// and no block larger than 8x the input.
    fn config_from_text_is_total_and_bounded(g, cases = 256) {
        let text = any_config_text(g);
        let (_, asked) = CountingAlloc::measure(|| SimConfig::from_text(&text).map(drop));
        let limit = FLOOR.max(BYTES_PER_INPUT_BYTE * text.len());
        assert_bounded("SimConfig::from_text", &text, asked.largest, limit);
    }

    /// `Scenario::parse` on arbitrary text: `Ok` or `Err`, and no block
    /// larger than 8x the input.
    fn scenario_parse_is_total_and_bounded(g, cases = 512) {
        let text = any_text(g);
        let (_, asked) = CountingAlloc::measure(|| Scenario::parse(&text).map(drop));
        let limit = FLOOR.max(BYTES_PER_INPUT_BYTE * text.len());
        assert_bounded("Scenario::parse", &text, asked.largest, limit);
    }

    /// `CampaignSpec::parse` on arbitrary text: `Ok` or `Err`, and no block
    /// larger than 8x the input beside the job list the text spells.
    fn campaign_parse_is_total_and_bounded(g, cases = 512) {
        let text = any_text(g);
        let (_, asked) = CountingAlloc::measure(|| CampaignSpec::parse(&text).map(drop));
        let list = 2 * jobs_spelled(&text) * std::mem::size_of::<JobSpec>();
        let limit = FLOOR.max(BYTES_PER_INPUT_BYTE * text.len()) + list;
        assert_bounded("CampaignSpec::parse", &text, asked.largest, limit);
    }
}
