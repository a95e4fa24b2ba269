//! Seeded workload generators.
//!
//! Every generator writes its inputs under a data directory and records
//! the known answer **from construction**: a history recorded from the
//! simulator's causal database is consistent at every level, a planted
//! causality cycle makes its history inconsistent at every level, and
//! each planted fractured read is exactly one stream violation. The
//! checker's own output is never consulted.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use awdit_core::History;
use awdit_simdb::{DbIsolation, Harness, SimConfig};
use awdit_stream::Event;
use awdit_workloads::{Benchmark, Uniform};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Workload sizes: `Full` is what the benchmark measures, `Smoke` runs
/// every workload end to end in seconds.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Smoke,
}

/// The four workloads.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    CcLargeAwb,
    FleetTextAll,
    WatchCcFresh,
    ServeTwoTenants,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CcLargeAwb,
        Workload::FleetTextAll,
        Workload::WatchCcFresh,
        Workload::ServeTwoTenants,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CcLargeAwb => "cc_large_awb",
            Workload::FleetTextAll => "fleet_text_all",
            Workload::WatchCcFresh => "watch_cc_fresh",
            Workload::ServeTwoTenants => "serve_two_tenants",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The isolation levels `awdit check --isolation all` reports, in order.
pub const ALL_LEVELS: [&str; 3] = ["rc", "ra", "cc"];

/// One checked history's known answer.
#[derive(Clone, Debug)]
pub struct ExpectedHistory {
    /// File name of the history (the report names it by path).
    pub file: String,
    pub txns: u64,
    pub ops: u64,
    /// Consistent at every checked level (a causal-database recording),
    /// or inconsistent at every level (a planted causality cycle).
    pub consistent: bool,
}

/// What the program under test must answer.
#[derive(Clone, Debug)]
pub enum Expect {
    /// `awdit check` over history files, at the listed levels.
    Check {
        levels: Vec<&'static str>,
        histories: Vec<ExpectedHistory>,
    },
    /// NDJSON event streams, each with this many planted violations.
    Streams { violations_each: u64 },
}

/// One workload's generated inputs and their description.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub files: Vec<PathBuf>,
    pub bytes: u64,
    pub txns: u64,
    pub ops: u64,
    pub sessions: u64,
    pub keys: u64,
    pub events: u64,
    /// FNV-1a over every input file's name and content, in order.
    pub digest: u64,
    pub expect: Expect,
}

/// Generates `workload`'s inputs for `seed` into `dir` (created fresh).
pub fn generate(workload: Workload, seed: u64, scale: Scale, dir: &Path) -> Result<Inputs, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut inputs = match workload {
        Workload::CcLargeAwb => cc_large_awb(seed, scale, dir)?,
        Workload::FleetTextAll => fleet_text_all(seed, scale, dir)?,
        Workload::WatchCcFresh => watch_cc_fresh(seed, scale, dir)?,
        Workload::ServeTwoTenants => serve_two_tenants(seed, scale, dir)?,
    };
    let mut digest = Fnv::new();
    let mut bytes = 0u64;
    for path in &inputs.files {
        let content = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        digest.write(name.as_bytes());
        digest.write(&content);
        bytes += content.len() as u64;
    }
    inputs.digest = digest.0;
    inputs.bytes = bytes;
    Ok(inputs)
}

fn cc_large_awb(seed: u64, scale: Scale, dir: &Path) -> Result<Inputs, String> {
    let (sessions, txns) = match scale {
        Scale::Full => (32, 100_000),
        Scale::Smoke => (8, 2_000),
    };
    let mut workload = Uniform::default();
    let history = Harness::new(SimConfig::new(DbIsolation::Causal, sessions, seed))
        .run(&mut workload, txns)
        .map_err(|e| format!("cc_large_awb generation: {e}"))?;
    let path = dir.join("cc_large.awb");
    write_file(&path, |w| awdit_formats::write_awb_to(&history, w))?;
    Ok(Inputs {
        files: vec![path],
        txns: history.num_txns() as u64,
        ops: history.size() as u64,
        sessions: history.num_sessions() as u64,
        keys: history.num_keys() as u64,
        events: history.size() as u64,
        expect: Expect::Check {
            levels: vec!["cc"],
            histories: vec![expected(&history, "cc_large.awb", true)],
        },
        ..Inputs::empty()
    })
}

fn fleet_text_all(seed: u64, scale: Scale, dir: &Path) -> Result<Inputs, String> {
    let (files, txns) = match scale {
        Scale::Full => (8u64, 25_000),
        Scale::Smoke => (3u64, 500),
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xF1EE7);
    let planted = rng.gen_range(0..files);
    let mut inputs = Inputs::empty();
    let mut histories = Vec::new();
    for i in 0..files {
        let config = SimConfig::new(
            DbIsolation::Causal,
            4,
            seed.wrapping_mul(64).wrapping_add(i),
        );
        let mut harness = Harness::new(config);
        let mut workload = Benchmark::TpcC.build();
        harness.drive(&mut *workload, txns);
        if i == planted && !harness.db_mut().inject_causality_cycle(&mut rng) {
            return Err("fleet_text_all: no cross-session read to plant a cycle on".into());
        }
        let history = harness
            .finish()
            .map_err(|e| format!("fleet_text_all generation: {e}"))?;
        let name = format!("h{i:02}.awdit");
        let path = dir.join(&name);
        write_file(&path, |w| {
            awdit_formats::write_history_to(&history, awdit_formats::Format::Native, w)
        })?;
        inputs.files.push(path);
        inputs.txns += history.num_txns() as u64;
        inputs.ops += history.size() as u64;
        inputs.sessions += history.num_sessions() as u64;
        inputs.keys += history.num_keys() as u64;
        histories.push(expected(&history, &name, i != planted));
    }
    inputs.events = inputs.ops;
    inputs.expect = Expect::Check {
        levels: ALL_LEVELS.to_vec(),
        histories,
    };
    Ok(inputs)
}

fn watch_cc_fresh(seed: u64, scale: Scale, dir: &Path) -> Result<Inputs, String> {
    let target = match scale {
        Scale::Full => 500_000,
        Scale::Smoke => 20_000,
    };
    stream_inputs(&[seed], target, dir)
}

fn serve_two_tenants(seed: u64, scale: Scale, dir: &Path) -> Result<Inputs, String> {
    let target = match scale {
        Scale::Full => 250_000,
        Scale::Smoke => 10_000,
    };
    stream_inputs(&[seed, seed ^ 0x7E4A47], target, dir)
}

/// Sessions, keys and operations per transaction of the stream shape.
pub const STREAM_SESSIONS: u64 = 8;
pub const STREAM_KEYS: u64 = 64;
const STREAM_OPS_PER_TXN: usize = 3;
/// Fractured reads planted in each stream.
pub const PLANTED_PER_STREAM: u64 = 4;

fn stream_inputs(seeds: &[u64], target: usize, dir: &Path) -> Result<Inputs, String> {
    let mut inputs = Inputs::empty();
    for (i, &seed) in seeds.iter().enumerate() {
        let events = make_stream(seed, target);
        let path = dir.join(format!("stream{i}.ndjson"));
        write_file(&path, |w| awdit_formats::write_events_to(&events, w))?;
        inputs.files.push(path);
        inputs.events += events.len() as u64;
        inputs.ops += events
            .iter()
            .filter(|e| matches!(e, Event::Read { .. } | Event::Write { .. }))
            .count() as u64;
        inputs.txns += events
            .iter()
            .filter(|e| matches!(e, Event::Commit { .. }))
            .count() as u64;
        inputs.sessions += STREAM_SESSIONS;
        inputs.keys += STREAM_KEYS + 2 * PLANTED_PER_STREAM;
    }
    inputs.expect = Expect::Streams {
        violations_each: PLANTED_PER_STREAM,
    };
    Ok(inputs)
}

/// A mostly-fresh stream: sessions take turns committing whole
/// transactions of three operations; a read observes the key's latest
/// committed value, a write installs a fresh one. So every read is
/// inside the pruning window and the base stream is serializable.
///
/// [`PLANTED_PER_STREAM`] fractured reads (Fig. 4b) are spread evenly
/// through it, each on two keys of its own: session `a` commits `W(x,1)`
/// and then `W(x,2) W(y,2)`, and session `b` reads `x = 1, y = 2` right
/// after. Each plant is one Read Atomic (hence Causal) violation, and
/// the three transactions are adjacent, so no read misses the window.
pub fn make_stream(seed: u64, target: usize) -> Vec<Event> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut latest: Vec<Option<u64>> = vec![None; STREAM_KEYS as usize];
    let mut next_value = 1u64;
    let mut events = Vec::with_capacity(target + 64);
    let mut planted = 0u64;
    while events.len() < target {
        let due = (planted + 1) as usize * target / (PLANTED_PER_STREAM as usize + 1);
        if planted < PLANTED_PER_STREAM && events.len() >= due {
            let a = rng.gen_range(0..STREAM_SESSIONS);
            let b = (a + rng.gen_range(1..STREAM_SESSIONS)) % STREAM_SESSIONS;
            let x = STREAM_KEYS + 2 * planted;
            let y = x + 1;
            let (v1, v2, v3) = (next_value, next_value + 1, next_value + 2);
            next_value += 3;
            events.extend([
                Event::Begin { session: a },
                Event::Write {
                    session: a,
                    key: x,
                    value: v1,
                },
                Event::Commit { session: a },
                Event::Begin { session: a },
                Event::Write {
                    session: a,
                    key: x,
                    value: v2,
                },
                Event::Write {
                    session: a,
                    key: y,
                    value: v3,
                },
                Event::Commit { session: a },
                Event::Begin { session: b },
                Event::Read {
                    session: b,
                    key: x,
                    value: v1,
                },
                Event::Read {
                    session: b,
                    key: y,
                    value: v3,
                },
                Event::Commit { session: b },
            ]);
            planted += 1;
        }
        for session in 0..STREAM_SESSIONS {
            events.push(Event::Begin { session });
            for _ in 0..STREAM_OPS_PER_TXN {
                let key = rng.gen_range(0..STREAM_KEYS);
                if rng.gen_bool(0.5) {
                    if let Some(value) = latest[key as usize] {
                        events.push(Event::Read {
                            session,
                            key,
                            value,
                        });
                    }
                } else {
                    events.push(Event::Write {
                        session,
                        key,
                        value: next_value,
                    });
                    latest[key as usize] = Some(next_value);
                    next_value += 1;
                }
            }
            events.push(Event::Commit { session });
        }
    }
    events
}

impl Inputs {
    fn empty() -> Inputs {
        Inputs {
            files: Vec::new(),
            bytes: 0,
            txns: 0,
            ops: 0,
            sessions: 0,
            keys: 0,
            events: 0,
            digest: 0,
            expect: Expect::Streams { violations_each: 0 },
        }
    }
}

fn expected(history: &History, file: &str, consistent: bool) -> ExpectedHistory {
    ExpectedHistory {
        file: file.to_string(),
        txns: history.num_txns() as u64,
        ops: history.size() as u64,
        consistent,
    }
}

fn write_file(
    path: &Path,
    emit: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = BufWriter::with_capacity(1 << 20, file);
    emit(&mut w)
        .and_then(|()| w.flush())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
