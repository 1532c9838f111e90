//! # lb-proto
//!
//! The versioned, line-delimited wire protocol shared by every socket
//! front-end of the workspace: one record per line, client speaks first,
//! every record leads with its `"kind"` tag. This crate owns the **single
//! parse/emit surface** — [`Record::parse`] and [`Record::render`] — so the
//! server and client sides of `lb serve`, `lb serve-trace --connect` and
//! `lb federate` can never drift apart on framing. Both go through the
//! workspace's one record codec ([`lb_analysis::codec`]), which snapshots
//! and traces use too, so a record is read in one pass with no JSON tree
//! in between; only the embedded scenario is a [`Json`] value.
//!
//! ## Versions
//!
//! * **v1** ([`PROTOCOL_V1`]) — the trace-ingest handshake spoken by
//!   `lb serve`: [`Record::Hello`], [`Record::Header`], [`Record::Welcome`],
//!   [`Record::Reject`]. The byte layout matches the records `lb serve` has
//!   always spoken, so v1 clients and servers interoperate unchanged.
//! * **v2** ([`PROTOCOL_V2`]) — the federation round-synchronization
//!   protocol layered on the same framing: a coordinator drives `parts`
//!   worker processes through per-round barrier and exchange records
//!   ([`Record::Join`] through [`Record::Abort`]). v2 extends v1 — a v2
//!   listener still accepts v1 ingest handshakes.
//!
//! ## Determinism
//!
//! Every `f64` travels as its IEEE-754 bit pattern inside a JSON integer
//! (never as a decimal float), so a value crosses a process boundary
//! bit-identically. Rendering is stable: the same record always renders to
//! the same bytes. Parsing applies the codec's exactness contract: an
//! integer in fraction or exponent form, an unknown or repeated field, and
//! an array entry of the wrong arity are all [`ProtoError::Malformed`].
//!
//! Semantic validation — protocol-version checks, scenario authentication,
//! rank bounds — is deliberately **not** done here: [`Record::parse`] checks
//! structure only and hands the typed record to the caller, which owns the
//! policy (and its error strings).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use lb_analysis::codec::{self, Decode, Encode, RecordWriter, Scan};
use lb_analysis::{read_fields, write_fields, Json};
use std::error::Error;
use std::fmt;
use std::io::{self, Write};

/// Protocol version of the trace-ingest handshake (`lb serve`).
pub const PROTOCOL_V1: u64 = 1;

/// Protocol version of the federation round protocol (`lb federate`).
pub const PROTOCOL_V2: u64 = 2;

/// Errors produced while parsing a wire record.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtoError {
    /// The line is not valid JSON, or a required field is missing or of the
    /// wrong type.
    Malformed {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// The line parses as JSON but its `kind` tag names no known record.
    UnknownKind {
        /// The unrecognized kind tag.
        kind: String,
    },
}

impl ProtoError {
    fn malformed(reason: impl Into<String>) -> Self {
        ProtoError::Malformed {
            reason: reason.into(),
        }
    }
}

impl From<String> for ProtoError {
    fn from(reason: String) -> Self {
        ProtoError::malformed(reason)
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Malformed { reason } => write!(f, "{reason}"),
            ProtoError::UnknownKind { kind } => write!(f, "unknown record kind {kind:?}"),
        }
    }
}

impl Error for ProtoError {}

/// One real-task delivery crossing a partition boundary: the canonical edge
/// it travelled, the receiving node, and the task's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTask {
    /// Canonical edge the task moved over (global edge id).
    pub edge: u64,
    /// Receiving node (global node id).
    pub node: u64,
    /// Task identity.
    pub id: u64,
    /// Task weight.
    pub weight: u64,
    /// True for dummy tokens drawn from the infinite source.
    pub dummy: bool,
}

/// One partition's outgoing cross-partition effects for a round, as they
/// travel on the wire. Mirrors `lb_core::SendBatch` field by field, with
/// global ids throughout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireBatch {
    /// Real-task deliveries, in the sender's canonical edge order.
    pub tasks: Vec<WireTask>,
    /// Aggregate dummy-unit deliveries per receiving node (Algorithm 1).
    pub dummy: Vec<(u64, u64)>,
    /// `(node, real, dummy)` token deliveries per receiving node
    /// (Algorithm 2).
    pub tokens: Vec<(u64, u64, u64)>,
    /// `(edge, delta)` discrete-flow ledger updates for crossing edges.
    pub deltas: Vec<(u64, i64)>,
}

/// A parsed wire record: every line either side of any `lb` socket speaks.
///
/// The v1 records carry the ingest handshake; the v2 records carry the
/// federation round protocol. See the [crate docs](self) for the flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Record {
    // -- v1: trace-ingest handshake ------------------------------------
    /// Client → server greeting opening an ingest connection.
    Hello {
        /// Protocol version the client speaks.
        version: u64,
        /// Feed name the connection claims.
        feed: String,
    },
    /// The trace header: version plus the embedded scenario (opaque here;
    /// the server authenticates it against its own).
    Header {
        /// Trace format version.
        version: u64,
        /// The scenario document the trace was recorded from.
        scenario: Json,
    },
    /// Server → client acceptance of a feed.
    Welcome {
        /// Protocol version the server speaks.
        version: u64,
        /// The admitted feed name.
        feed: String,
        /// Last round already admitted from this feed (reconnects resume
        /// strictly after it); `None` for a fresh feed.
        last_round: Option<u64>,
    },
    /// Server → client refusal; the connection is dropped afterwards.
    Reject {
        /// Protocol version the server speaks.
        version: u64,
        /// Why the handshake was refused.
        error: String,
    },
    // -- v2: federation round protocol ---------------------------------
    /// Worker → coordinator greeting: claims one partition rank.
    Join {
        /// Protocol version the worker speaks (v2).
        version: u64,
        /// Partition rank this worker claims.
        rank: u64,
        /// Partition count the worker was launched for.
        parts: u64,
    },
    /// Coordinator → worker: the effective scenario and run shape; the
    /// worker builds its engine from this and nothing else.
    Start {
        /// The effective scenario document (seed and federation overrides
        /// already applied).
        scenario: Json,
        /// Number of partitions in the run.
        parts: u64,
        /// Intra-partition shard count each worker should use.
        shards: u64,
        /// Checkpoint cadence in rounds; `None` disables checkpointing.
        checkpoint_every: Option<u64>,
    },
    /// Coordinator → worker round barrier: all workers proceed into
    /// `round` together.
    Round {
        /// The round about to execute.
        round: u64,
    },
    /// Boundary-node twin loads, as `(node, f64-bits)` entries. Workers
    /// send their own boundary (rank-tagged); the coordinator broadcasts
    /// the combined list (`rank: None`).
    Loads {
        /// Sending worker's rank, or `None` for the coordinator's combined
        /// broadcast.
        rank: Option<u64>,
        /// `(global node id, IEEE-754 bits of the twin load)`.
        entries: Vec<(u64, u64)>,
    },
    /// Crossing-edge kernel flows, as `(edge, forward-bits, backward-bits)`
    /// entries; same gather/broadcast shape as [`Record::Loads`].
    Flows {
        /// Sending worker's rank, or `None` for the coordinator's combined
        /// broadcast.
        rank: Option<u64>,
        /// `(global edge id, forward flow bits, backward flow bits)`.
        entries: Vec<(u64, u64, u64)>,
    },
    /// Worker → coordinator: this partition's outgoing cross-partition
    /// deliveries for the round.
    Sends {
        /// Sending worker's rank.
        rank: u64,
        /// The outgoing batch.
        batch: WireBatch,
    },
    /// Coordinator → worker: every partition's batch for the round, rank-
    /// tagged, so each worker merges deliveries in global edge order.
    Deliver {
        /// `(rank, batch)` for every partition, in rank order.
        batches: Vec<(u64, WireBatch)>,
    },
    /// Worker → coordinator: this partition's slice of a round sample.
    Sample {
        /// Sending worker's rank.
        rank: u64,
        /// The sampled round.
        round: u64,
        /// Owned-range total loads, as IEEE-754 bits, in node order.
        loads: Vec<u64>,
        /// Owned-range real (non-dummy) loads, as IEEE-754 bits.
        real: Vec<u64>,
        /// Partition's dummy-load partial sum.
        dummy_load: u64,
        /// Partition's arrived-weight partial sum.
        arrived: u64,
        /// Partition's completed-weight partial sum.
        completed: u64,
    },
    /// Worker → coordinator: a full rendered snapshot of this partition's
    /// engine (foreign entries stale), for churn reassembly and
    /// checkpoints.
    State {
        /// Sending worker's rank.
        rank: u64,
        /// The round the state was captured at.
        round: u64,
        /// The rendered snapshot document.
        snapshot: String,
    },
    /// Coordinator → worker: the assembled full snapshot every worker
    /// restores from before continuing.
    Restore {
        /// The round the assembled state belongs to.
        round: u64,
        /// The rendered snapshot document.
        snapshot: String,
    },
    /// Coordinator → worker: the run is complete; reply with
    /// [`Record::Done`] and exit.
    Finish,
    /// Worker → coordinator: final per-partition totals.
    Done {
        /// Replying worker's rank.
        rank: u64,
        /// Partition's dummy-created partial sum.
        dummy_created: u64,
        /// The engine name the worker ran (e.g. `alg1(fos)`).
        engine: String,
    },
    /// Either direction: the sender hit a fatal error and is going away.
    Abort {
        /// What went wrong.
        error: String,
    },
}

impl Record {
    /// The `kind` tag this record renders with.
    pub fn kind(&self) -> &'static str {
        match self {
            Record::Hello { .. } => "hello",
            Record::Header { .. } => "header",
            Record::Welcome { .. } => "welcome",
            Record::Reject { .. } => "reject",
            Record::Join { .. } => "join",
            Record::Start { .. } => "start",
            Record::Round { .. } => "round",
            Record::Loads { .. } => "loads",
            Record::Flows { .. } => "flows",
            Record::Sends { .. } => "sends",
            Record::Deliver { .. } => "deliver",
            Record::Sample { .. } => "sample",
            Record::State { .. } => "state",
            Record::Restore { .. } => "restore",
            Record::Finish => "finish",
            Record::Done { .. } => "done",
            Record::Abort { .. } => "abort",
        }
    }

    /// Parses one wire line into a typed record.
    ///
    /// Structural validation only: every field the record defines must be
    /// present once and well-typed, and no other field may appear, but no
    /// version or policy checks happen here.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] for bad JSON or missing, mistyped or
    /// unknown fields, [`ProtoError::UnknownKind`] for an unrecognized
    /// `kind` tag.
    pub fn parse(line: &str) -> Result<Record, ProtoError> {
        let (mut scan, kind) = Scan::record(line).map_err(ProtoError::malformed)?;
        let record = match &*kind {
            "hello" => read_fields!(scan.fields("hello") => Record::Hello {
                version: u64, feed: String
            }),
            "header" => read_fields!(scan.fields("header") => Record::Header {
                version: u64, scenario: Json
            }),
            "welcome" => read_fields!(scan.fields("welcome") => Record::Welcome {
                version: u64, feed: String, last_round: Option<u64>
            }),
            "reject" => read_fields!(scan.fields("reject") => Record::Reject {
                version: u64, error: String
            }),
            "join" => read_fields!(scan.fields("join") => Record::Join {
                version: u64, rank: u64, parts: u64
            }),
            "start" => read_fields!(scan.fields("start") => Record::Start {
                scenario: Json, parts: u64, shards: u64, checkpoint_every: Option<u64>
            }),
            "round" => read_fields!(scan.fields("round") => Record::Round { round: u64 }),
            "loads" => read_fields!(scan.fields("loads") => Record::Loads {
                rank: Option<u64>, entries: Vec<(u64, u64)>
            }),
            "flows" => read_fields!(scan.fields("flows") => Record::Flows {
                rank: Option<u64>, entries: Vec<(u64, u64, u64)>
            }),
            "sends" => read_fields!(scan.fields("sends") => Record::Sends {
                rank: u64, batch: WireBatch
            }),
            "deliver" => {
                read_fields!(scan.fields("deliver") { batches: Vec<Ranked> });
                let batches = batches.into_iter().map(|Ranked(entry)| entry).collect();
                Record::Deliver { batches }
            }
            "sample" => read_fields!(scan.fields("sample") => Record::Sample {
                rank: u64, round: u64, loads: Vec<u64>, real: Vec<u64>, dummy_load: u64,
                arrived: u64, completed: u64
            }),
            "state" => read_fields!(scan.fields("state") => Record::State {
                rank: u64, round: u64, snapshot: String
            }),
            "restore" => read_fields!(scan.fields("restore") => Record::Restore {
                round: u64, snapshot: String
            }),
            "finish" => {
                scan.fields("finish", |_, _| Ok(false))?;
                Record::Finish
            }
            "done" => read_fields!(scan.fields("done") => Record::Done {
                rank: u64, dummy_created: u64, engine: String
            }),
            "abort" => read_fields!(scan.fields("abort") => Record::Abort { error: String }),
            other => {
                return Err(ProtoError::UnknownKind {
                    kind: other.to_string(),
                })
            }
        };
        if let Record::Hello { feed, .. } | Record::Welcome { feed, .. } = &record {
            if feed.is_empty() {
                return Err(ProtoError::malformed(format!("{kind} has no feed name")));
            }
        }
        Ok(record)
    }

    /// Renders the record to its one-line wire form (no trailing newline).
    ///
    /// Rendering is stable — the same record always produces the same
    /// bytes — and `parse(render(r)) == r` for every record.
    pub fn render(&self) -> String {
        codec::render_with(|out| {
            out.open(self.kind())?;
            match self {
                Record::Hello { version, feed } => write_fields!(out: version, feed),
                Record::Header { version, scenario } => write_fields!(out: version, scenario),
                Record::Welcome {
                    version,
                    feed,
                    last_round,
                } => write_fields!(out: version, feed, last_round),
                Record::Reject { version, error } => write_fields!(out: version, error),
                Record::Join {
                    version,
                    rank,
                    parts,
                } => write_fields!(out: version, rank, parts),
                Record::Start {
                    scenario,
                    parts,
                    shards,
                    checkpoint_every,
                } => write_fields!(out: scenario, parts, shards, checkpoint_every),
                Record::Round { round } => write_fields!(out: round),
                Record::Loads { rank, entries } => write_fields!(out: rank, entries),
                Record::Flows { rank, entries } => write_fields!(out: rank, entries),
                Record::Sends { rank, batch } => write_fields!(out: rank, batch),
                Record::Deliver { batches } => {
                    out.key("batches")?;
                    out.begin(b'[')?;
                    for (rank, batch) in batches {
                        out.begin(b'{')?;
                        write_fields!(out: rank, batch);
                        out.end(b'}')?;
                    }
                    out.end(b']')?;
                }
                Record::Sample {
                    rank,
                    round,
                    loads,
                    real,
                    dummy_load,
                    arrived,
                    completed,
                } => write_fields!(out: rank, round, loads, real, dummy_load, arrived, completed),
                Record::State {
                    rank,
                    round,
                    snapshot,
                } => write_fields!(out: rank, round, snapshot),
                Record::Restore { round, snapshot } => write_fields!(out: round, snapshot),
                Record::Finish => {}
                Record::Done {
                    rank,
                    dummy_created,
                    engine,
                } => write_fields!(out: rank, dummy_created, engine),
                Record::Abort { error } => write_fields!(out: error),
            }
            out.end(b'}')
        })
    }
}

/// A batch travels as `{"tasks":[[edge,node,id,weight,dummy],…],
/// "dummy":[[node,units],…],"tokens":[[node,real,dummy],…],
/// "deltas":[[edge,delta],…]}`.
impl Encode for WireBatch {
    fn encode<W: Write>(&self, out: &mut RecordWriter<W>) -> io::Result<()> {
        out.begin(b'{')?;
        write_fields!(out: self => tasks, dummy, tokens, deltas);
        out.end(b'}')
    }
}

impl Decode for WireBatch {
    fn decode(scan: &mut Scan<'_>) -> Result<Self, String> {
        Ok(read_fields!(scan.object("batch") => WireBatch {
            tasks: Vec<WireTask>, dummy: Vec<(u64, u64)>, tokens: Vec<(u64, u64, u64)>,
            deltas: Vec<(u64, i64)>
        }))
    }
}

impl Encode for WireTask {
    fn encode<W: Write>(&self, out: &mut RecordWriter<W>) -> io::Result<()> {
        (self.edge, self.node, self.id, self.weight, self.dummy).encode(out)
    }
}

impl Decode for WireTask {
    fn decode(scan: &mut Scan<'_>) -> Result<Self, String> {
        let (edge, node, id, weight, dummy) = scan.read()?;
        Ok(WireTask {
            edge,
            node,
            id,
            weight,
            dummy,
        })
    }
}

/// One `{"rank":R,"batch":{…}}` entry of a [`Record::Deliver`].
struct Ranked((u64, WireBatch));

impl Decode for Ranked {
    fn decode(scan: &mut Scan<'_>) -> Result<Self, String> {
        read_fields!(scan.object("deliver entry") { rank: u64, batch: WireBatch });
        Ok(Ranked((rank, batch)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(record: Record) {
        let line = record.render();
        assert!(!line.contains('\n'), "wire form must be one line: {line}");
        let parsed = Record::parse(&line).expect("rendered record parses");
        assert_eq!(parsed, record);
    }

    #[test]
    fn v1_records_roundtrip_and_pin_their_bytes() {
        let hello = Record::Hello {
            version: PROTOCOL_V1,
            feed: "a".into(),
        };
        // Byte-compatibility with pre-crate `lb serve`: the rendered form is
        // pinned, not just the parse/render fixpoint.
        assert_eq!(hello.render(), r#"{"kind":"hello","version":1,"feed":"a"}"#);
        roundtrip(hello);
        roundtrip(Record::Welcome {
            version: PROTOCOL_V1,
            feed: "replay".into(),
            last_round: Some(7),
        });
        assert_eq!(
            Record::Welcome {
                version: PROTOCOL_V1,
                feed: "a".into(),
                last_round: None,
            }
            .render(),
            r#"{"kind":"welcome","version":1,"feed":"a","last_round":null}"#
        );
        roundtrip(Record::Reject {
            version: PROTOCOL_V1,
            error: "feed \"a\" is already connected".into(),
        });
        roundtrip(Record::Header {
            version: 1,
            scenario: Json::obj([("name", Json::from("s"))]),
        });

        // The v2 round records, pinned the same way.
        let batch = WireBatch {
            tasks: vec![
                WireTask {
                    edge: 3,
                    node: 7,
                    id: 1 << 60,
                    weight: 2,
                    dummy: false,
                },
                WireTask {
                    edge: 4,
                    node: 8,
                    id: 5,
                    weight: 1,
                    dummy: true,
                },
            ],
            dummy: vec![(7, 4)],
            tokens: vec![(1, 2, 3)],
            deltas: vec![(3, -5), (9, i64::MAX)],
        };
        let batch_text = concat!(
            r#"{"tasks":[[3,7,1152921504606846976,2,false],[4,8,5,1,true]],"#,
            r#""dummy":[[7,4]],"tokens":[[1,2,3]],"deltas":[[3,-5],[9,9223372036854775807]]}"#,
        );
        let pins = [
            (
                Record::Loads {
                    rank: None,
                    entries: vec![(0, 4_607_182_418_800_017_408), (5, 0)],
                },
                r#"{"kind":"loads","rank":null,"entries":[[0,4607182418800017408],[5,0]]}"#
                    .to_string(),
            ),
            (
                Record::Flows {
                    rank: Some(1),
                    entries: vec![(9, 17, u64::MAX)],
                },
                r#"{"kind":"flows","rank":1,"entries":[[9,17,18446744073709551615]]}"#.to_string(),
            ),
            (
                Record::Sends {
                    rank: 2,
                    batch: batch.clone(),
                },
                format!(r#"{{"kind":"sends","rank":2,"batch":{batch_text}}}"#),
            ),
            (
                Record::Deliver {
                    batches: vec![(0, WireBatch::default()), (1, batch)],
                },
                format!(
                    r#"{{"kind":"deliver","batches":[{{"rank":0,"batch":{{"tasks":[],"dummy":[],"tokens":[],"deltas":[]}}}},{{"rank":1,"batch":{batch_text}}}]}}"#
                ),
            ),
            (
                Record::Sample {
                    rank: 0,
                    round: 16,
                    loads: vec![1, 2, 3],
                    real: Vec::new(),
                    dummy_load: 7,
                    arrived: 8,
                    completed: 9,
                },
                r#"{"kind":"sample","rank":0,"round":16,"loads":[1,2,3],"real":[],"dummy_load":7,"arrived":8,"completed":9}"#
                    .to_string(),
            ),
            (
                Record::State {
                    rank: 1,
                    round: 8,
                    snapshot: "{\"kind\":\"header\"}\n\t{\"kind\":\"end\"}\\\n".into(),
                },
                r#"{"kind":"state","rank":1,"round":8,"snapshot":"{\"kind\":\"header\"}\n\t{\"kind\":\"end\"}\\\n"}"#
                    .to_string(),
            ),
        ];
        for (record, line) in pins {
            assert_eq!(record.render(), line);
            roundtrip(record);
        }
    }

    #[test]
    fn v2_records_roundtrip() {
        roundtrip(Record::Join {
            version: PROTOCOL_V2,
            rank: 1,
            parts: 4,
        });
        roundtrip(Record::Start {
            scenario: Json::obj([("rounds", Json::from(32u64))]),
            parts: 4,
            shards: 2,
            checkpoint_every: Some(8),
        });
        roundtrip(Record::Start {
            scenario: Json::Null,
            parts: 2,
            shards: 1,
            checkpoint_every: None,
        });
        roundtrip(Record::Round { round: 12 });
        roundtrip(Record::Loads {
            rank: Some(3),
            entries: vec![(0, 4_607_182_418_800_017_408), (5, 0)],
        });
        roundtrip(Record::Loads {
            rank: None,
            entries: Vec::new(),
        });
        roundtrip(Record::Flows {
            rank: Some(0),
            entries: vec![(9, 17, u64::MAX)],
        });
        roundtrip(Record::Sends {
            rank: 2,
            batch: WireBatch {
                tasks: vec![WireTask {
                    edge: 3,
                    node: 7,
                    id: 1 << 60,
                    weight: 2,
                    dummy: false,
                }],
                dummy: vec![(7, 4)],
                tokens: vec![(1, 2, 3)],
                deltas: vec![(3, -5), (9, i64::MAX)],
            },
        });
        roundtrip(Record::Deliver {
            batches: vec![(0, WireBatch::default()), (1, WireBatch::default())],
        });
        roundtrip(Record::Sample {
            rank: 0,
            round: 16,
            loads: vec![1, 2, 3],
            real: vec![4, 5, 6],
            dummy_load: 7,
            arrived: 8,
            completed: 9,
        });
        roundtrip(Record::State {
            rank: 1,
            round: 8,
            snapshot: "{\"kind\":\"header\"}\n{\"kind\":\"end\"}\n".into(),
        });
        roundtrip(Record::Restore {
            round: 8,
            snapshot: "line one\nline two\n".into(),
        });
        roundtrip(Record::Finish);
        roundtrip(Record::Done {
            rank: 3,
            dummy_created: 11,
            engine: "alg2(sos)".into(),
        });
        roundtrip(Record::Abort {
            error: "worker 2 went away".into(),
        });
    }

    #[test]
    fn malformed_lines_produce_typed_errors() {
        assert!(matches!(
            Record::parse("not json"),
            Err(ProtoError::Malformed { .. })
        ));
        assert!(matches!(
            Record::parse(r#"{"version":1}"#),
            Err(ProtoError::Malformed { .. })
        ));
        assert!(matches!(
            Record::parse(r#"{"kind":"warp"}"#),
            Err(ProtoError::UnknownKind { kind }) if kind == "warp"
        ));
        let err = Record::parse(r#"{"kind":"hello","feed":"a"}"#).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        let err = Record::parse(r#"{"kind":"hello","version":1,"feed":""}"#).unwrap_err();
        assert!(err.to_string().contains("feed"), "{err}");
        let err = Record::parse(r#"{"kind":"round"}"#).unwrap_err();
        assert!(err.to_string().contains("round"), "{err}");
        let err = Record::parse(r#"{"kind":"sends","rank":0}"#).unwrap_err();
        assert!(err.to_string().contains("batch"), "{err}");
        let err = Record::parse(r#"{"kind":"loads","rank":0,"entries":[[1]]}"#).unwrap_err();
        assert!(err.to_string().contains("pair"), "{err}");
        // Entries longer than their arity are malformed too, not truncated.
        for line in [
            r#"{"kind":"loads","rank":0,"entries":[[1,2,99]]}"#,
            r#"{"kind":"sends","rank":0,"batch":{"tasks":[[1,2,3,4,false,6]],"dummy":[],"tokens":[],"deltas":[]}}"#,
            r#"{"kind":"sends","rank":0,"batch":{"tasks":[],"dummy":[],"tokens":[],"deltas":[[1,-2,3]]}}"#,
        ] {
            assert!(
                matches!(Record::parse(line), Err(ProtoError::Malformed { .. })),
                "{line}"
            );
        }
    }

    #[test]
    fn float_bits_survive_the_wire_exactly() {
        for value in [0.0f64, -0.0, 1.0, f64::MIN_POSITIVE, 1.0 / 3.0, 6.25e17] {
            let record = Record::Loads {
                rank: Some(0),
                entries: vec![(0, value.to_bits())],
            };
            let Record::Loads { entries, .. } = Record::parse(&record.render()).unwrap() else {
                panic!("loads record changed kind on the wire");
            };
            assert_eq!(f64::from_bits(entries[0].1).to_bits(), value.to_bits());
        }
    }

    #[test]
    fn error_type_is_displayable_and_sendable() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<ProtoError>();
        let err = ProtoError::UnknownKind { kind: "x".into() };
        assert!(err.to_string().contains("unknown record kind"));
    }
}
