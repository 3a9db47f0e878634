//! Seeded generation of file contents and request streams.
//!
//! Everything a run sends is produced here from `--seed` before timing
//! starts; the daemon only ever sees these frames. The generator is a
//! local SplitMix64 so the streams do not depend on any RNG crate.

use sero_proto::frame::encode_request;
use sero_proto::{Request, WireClass};

/// SplitMix64: tiny, seedable, and good enough to pick names and bytes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) under one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The bytes of content `id` under `seed`: what setup or a `Write`
/// stored, and what a later `Read` must return.
pub fn content(seed: u64, id: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed, id ^ 0xC0_27E7);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Content id of version `version` of file number `file`.
pub fn content_id(file: u64, version: u64) -> u64 {
    (file << 24) | version
}

/// The request kinds the workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `Request::Read`.
    Read,
    /// `Request::Create`.
    Create,
    /// `Request::Write`.
    Write,
    /// `Request::Heat`.
    Heat,
    /// `Request::Verify`.
    Verify,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 5] = [
        Kind::Read,
        Kind::Create,
        Kind::Write,
        Kind::Heat,
        Kind::Verify,
    ];

    /// Lower-case name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Create => "create",
            Kind::Write => "write",
            Kind::Heat => "heat",
            Kind::Verify => "verify",
        }
    }
}

/// The answer a request must get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `Response::Data` holding `content(seed, id, len)`.
    Data { id: u64, len: usize },
    /// `Response::Created`.
    Created,
    /// `Response::Written`.
    Written,
    /// `Response::Heated`.
    Heated,
    /// `Response::Verified(Intact)`.
    Intact,
    /// `TAMPER-DETECTED`: the planted tamper surfaced.
    Tamper,
}

/// One generated request: its frame, what it must answer, and whether
/// the file's heated line is tampered just before it is sent. Only the
/// frame is kept; an in-process replay decodes it as the daemon does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Request kind.
    pub kind: Kind,
    /// The encoded request frame, exactly as sent.
    pub frame: Vec<u8>,
    /// The required answer.
    pub expect: Expect,
    /// Tamper this file's heated line before sending.
    pub tamper_before: Option<String>,
}

impl Op {
    fn new(kind: Kind, request: Request, expect: Expect) -> Op {
        let frame = encode_request(&request).expect("generated requests fit one frame");
        Op {
            kind,
            frame,
            expect,
            tamper_before: None,
        }
    }
}

/// Client connections, each a closed loop: one per core of the 2-vCPU
/// reference box.
pub const CONNS: u64 = 2;
/// Size of a preloaded (`serve-read` or hot) file.
pub const SMALL_BYTES: usize = 1024;
/// Size of an `archive-ingest` archival file.
pub const ARCHIVE_BYTES: usize = 4096;
/// Size of a `scrub-audit` file.
pub const AUDIT_BYTES: usize = 7000;

/// Name of file `i` of the preloaded set.
pub fn file_name(prefix: &str, i: u64) -> String {
    format!("{prefix}{i:05}")
}

/// `serve-read`: uniform-random reads of the `files` preloaded names,
/// `ops` per connection.
pub fn serve_read_stream(seed: u64, conn: u64, files: u64, ops: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x5EAD_0000 + conn);
    (0..ops)
        .map(|_| {
            let f = rng.below(files);
            Op::new(
                Kind::Read,
                Request::Read {
                    name: file_name("r", f),
                },
                Expect::Data {
                    id: content_id(f, 0),
                    len: SMALL_BYTES,
                },
            )
        })
        .collect()
}

/// Cycle on connection 0 whose `Verify` meets the planted tamper.
fn tamper_cycle(seed: u64) -> usize {
    8 + Rng::new(seed, 0x7A3B).below(24) as usize
}

/// `archive-ingest` on connection `conn`: `cycles` cycles of Create
/// archival, Write hot, Read hot, Heat (the file created two cycles
/// earlier), Verify (the file heated two cycles earlier). Connection
/// `conn` owns the hot files `i` with `i % CONNS == conn` of the
/// `hot_files` preloaded ones, so the expected content of every read is
/// known at generation time.
pub fn ingest_stream(seed: u64, conn: u64, hot_files: u64, cycles: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x1A6E_0000 + conn);
    let owned = hot_files / CONNS;
    let mut versions = vec![0u64; owned as usize];
    let hot = |j: u64| j * CONNS + conn;
    let archive = |k: usize| format!("a{conn}-{k:06}");
    let planted = (conn == 0).then(|| tamper_cycle(seed));
    let mut ops = Vec::with_capacity(cycles * 5);
    for k in 0..cycles {
        let id = content_id(1 << 20 | conn << 16 | k as u64, 0);
        ops.push(Op::new(
            Kind::Create,
            Request::Create {
                name: archive(k),
                data: content(seed, id, ARCHIVE_BYTES),
                class: WireClass::Archival,
            },
            Expect::Created,
        ));
        let j = rng.below(owned);
        versions[j as usize] += 1;
        let id = content_id(hot(j), versions[j as usize]);
        ops.push(Op::new(
            Kind::Write,
            Request::Write {
                name: file_name("h", hot(j)),
                data: content(seed, id, SMALL_BYTES),
                class: WireClass::Normal,
            },
            Expect::Written,
        ));
        let j = rng.below(owned);
        ops.push(Op::new(
            Kind::Read,
            Request::Read {
                name: file_name("h", hot(j)),
            },
            Expect::Data {
                id: content_id(hot(j), versions[j as usize]),
                len: SMALL_BYTES,
            },
        ));
        if k >= 2 {
            ops.push(Op::new(
                Kind::Heat,
                Request::Heat {
                    name: archive(k - 2),
                    metadata: format!("ingest {conn}/{}", k - 2).into_bytes(),
                    timestamp: k as u64,
                },
                Expect::Heated,
            ));
        }
        if k >= 4 {
            let target = archive(k - 4);
            let tampered = planted == Some(k);
            let mut op = Op::new(
                Kind::Verify,
                Request::Verify {
                    name: target.clone(),
                },
                if tampered {
                    Expect::Tamper
                } else {
                    Expect::Intact
                },
            );
            if tampered {
                op.tamper_before = Some(target);
            }
            ops.push(op);
        }
    }
    ops
}
