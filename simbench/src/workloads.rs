//! The four workloads: machine geometry, program source, seeded input
//! sets, and the host-computed answer each input set must produce.
//!
//! Every value a program touches stays far inside the signed 16-bit
//! range, so the host models below use plain integer arithmetic.

use std::fmt::Write as _;
use std::ops::Range;

use asc_core::MachineConfig;
use asc_isa::{Width, Word};

/// Workload names, in the order a full run executes them.
pub const NAMES: [&str; 4] =
    ["mt_query_fleet", "fused_stencil", "million_pe_query", "cli_cold_run"];

/// Seeded input sets a machine workload's ops cycle through.
pub const INPUT_SETS: usize = 8;

/// Distinct programs the CLI workload's ops cycle through.
pub const CLI_PROGRAMS: usize = 64;

const W: Width = Width::W16;

/// splitmix64: small, seedable, and the same on every host.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> i64 {
        (self.next_u64() % n) as i64
    }
}

/// One input set of a machine workload: what is preloaded, and the
/// answer the host computed for it.
pub struct InputSet {
    /// `(lmem row, one word per PE)` scattered before the run.
    pub columns: Vec<(u32, Vec<Word>)>,
    /// `(address, value)` written to scalar memory before the run.
    pub smem: Vec<(u32, Word)>,
    /// The readback the run must produce.
    pub expected: Vec<Word>,
}

/// What an op reads back after its run: a scalar-memory range, then
/// optionally one local-memory row of every PE.
pub struct Readback {
    pub smem: Range<u32>,
    pub column: Option<u32>,
}

/// A workload driven through `Machine` directly.
pub struct MachineWorkload {
    pub cfg: MachineConfig,
    pub source: String,
    pub readback: Readback,
    pub inputs: Vec<InputSet>,
}

pub enum Workload {
    Machine(MachineWorkload),
    /// `mtasc run` through `asc_cli::dispatch`, one source per program.
    Cli(Vec<String>),
}

/// Position of workload `name` in [`NAMES`].
pub fn index(name: &str) -> Option<usize> {
    NAMES.iter().position(|&n| n == name)
}

/// How many inputs a full run of workload `index` cycles through.
pub fn inputs(index: usize) -> usize {
    if NAMES[index] == "cli_cold_run" {
        CLI_PROGRAMS
    } else {
        INPUT_SETS
    }
}

/// Build workload `name` from `seed` with `sets` input sets (machine
/// workloads) or [`CLI_PROGRAMS`] programs (the CLI workload).
pub fn build(name: &str, seed: u64, sets: usize) -> Option<Workload> {
    let index = index(name)? as u64;
    let mut rng = Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ index);
    Some(match index {
        0 => Workload::Machine(fleet(&mut rng, sets)),
        1 => Workload::Machine(stencil(&mut rng, sets)),
        2 => Workload::Machine(million(&mut rng, sets)),
        _ => Workload::Cli((0..CLI_PROGRAMS).map(|i| cli_program(&mut rng, i as u64)).collect()),
    })
}

fn words(values: &[i64]) -> Vec<Word> {
    values.iter().map(|&v| Word::from_i64(v, W)).collect()
}

// ------------------------------------------------------------ mt_query_fleet

const FLEET_PES: usize = 256;
const FLEET_WORKERS: usize = 15;
const FLEET_PER_WORKER: usize = 16;
const FLEET_QUERIES: usize = FLEET_WORKERS * FLEET_PER_WORKER;
const FLEET_KEYS: u64 = 64;
const FLEET_THRESHOLD: i64 = 20;
const FLEET_QUERY_BASE: u32 = 64;
const FLEET_RESULT_BASE: u32 = 512;

/// The boot thread spawns 15 workers, so all 16 contexts are live, then
/// joins them. Each worker answers its slice of the queries: an
/// associative compare, a six-instruction lane-local run on its private
/// planes, a responder count and a store. Every count is a reduction
/// hazard the other contexts fill.
fn fleet_source() -> String {
    // One entry stub per worker carries its slice: a context id cannot,
    // since an early-exiting worker's id is reused by a later spawn.
    let stubs: String = (0..FLEET_WORKERS)
        .map(|k| format!("stub{k}:  li     s7, {}\n        j      wbody\n", k * FLEET_PER_WORKER))
        .collect();
    format!(
        "main:   li     s1, stub0
        li     s2, 0
        li     s3, {FLEET_WORKERS}
spawnl: ceq    f1, s2, s3
        bt     f1, joins
        tspawn s4, s1
        sw     s4, 16(s2)
        addi   s1, s1, 2
        addi   s2, s2, 1
        j      spawnl
joins:  li     s2, 0
joinl:  ceq    f1, s2, s3
        bt     f1, done
        lw     s4, 16(s2)
        tjoin  s4
        addi   s2, s2, 1
        j      joinl
done:   halt
{stubs}wbody:  plw    p2, 0(p0)
        plw    p3, 1(p0)
        addi   s6, s7, {FLEET_PER_WORKER}
qloop:  ceq    f1, s7, s6
        bt     f1, wdone
        lw     s2, {FLEET_QUERY_BASE}(s7)
        pceqs  pf1, p2, s2
        paddi  p4, p3, 7
        pandi  p4, p4, 63
        pxor   p5, p4, p2
        psrli  p5, p5, 1
        pclti  pf2, p5, {FLEET_THRESHOLD}
        pfand  pf3, pf1, pf2
        rcount s8, pf3
        sw     s8, {FLEET_RESULT_BASE}(s7)
        addi   s7, s7, 1
        j      qloop
wdone:  texit
"
    )
}

/// Host model of the fleet: per query, the PEs whose key matches and
/// whose lane-local score is under the threshold.
fn fleet_answer(keys: &[i64], vals: &[i64], queries: &[i64]) -> Vec<i64> {
    queries
        .iter()
        .map(|&q| {
            let hits = keys.iter().zip(vals).filter(|&(&k, &v)| {
                let score = (((v + 7) & 63) ^ k) >> 1;
                k == q && score < FLEET_THRESHOLD
            });
            hits.count() as i64
        })
        .collect()
}

fn fleet(rng: &mut Rng, sets: usize) -> MachineWorkload {
    let inputs = (0..sets)
        .map(|_| {
            let keys: Vec<i64> = (0..FLEET_PES).map(|_| rng.below(FLEET_KEYS)).collect();
            let vals: Vec<i64> = (0..FLEET_PES).map(|_| rng.below(1024)).collect();
            let queries: Vec<i64> = (0..FLEET_QUERIES).map(|_| rng.below(FLEET_KEYS)).collect();
            InputSet {
                expected: words(&fleet_answer(&keys, &vals, &queries)),
                smem: (FLEET_QUERY_BASE..).zip(words(&queries)).collect(),
                columns: vec![(0, words(&keys)), (1, words(&vals))],
            }
        })
        .collect();
    MachineWorkload {
        cfg: MachineConfig::new(FLEET_PES),
        source: fleet_source(),
        readback: Readback {
            smem: FLEET_RESULT_BASE..FLEET_RESULT_BASE + FLEET_QUERIES as u32,
            column: None,
        },
        inputs,
    }
}

// ------------------------------------------------------------- fused_stencil

const STENCIL_PES: usize = 1 << 16;
/// Four iterations keep an op near 2.5 ms on the sizing host, so a p90
/// window of 104 ops spans a quarter second: short enough to fall between
/// other tenants' bursts.
const STENCIL_ITERS: usize = 4;
const STENCIL_RESULT_BASE: u32 = 64;

/// [`STENCIL_ITERS`] loop iterations; each is one 22-instruction fusible block over
/// three local-memory rows (load, ALU, compare, flag logic, masked
/// updates, store back) followed by a max reduction of the new row.
fn stencil_source() -> String {
    format!(
        "        li     s7, 0
        li     s6, {STENCIL_ITERS}
loop:   ceq    f1, s7, s6
        bt     f1, done
        plw    p1, 0(p0)
        plw    p2, 1(p0)
        plw    p3, 2(p0)
        padd   p4, p1, p2
        psrli  p4, p4, 1
        pxor   p5, p3, p1
        pandi  p5, p5, 127
        padd   p6, p4, p5
        pclt   pf1, p1, p2
        pclt   pf2, p5, p4
        pfxor  pf3, pf1, pf2
        pmax   p7, p1, p3 ?pf3
        pmin   p7, p2, p7 ?pf1
        padd   p8, p6, p7
        psrli  p8, p8, 1
        pxor   p8, p8, p5
        pfor   pf5, pf2, pf3
        paddi  p8, p8, 3 ?pf5
        pcle   pf6, p8, p1
        pfandn pf7, pf6, pf1
        paddi  p8, p8, 5 ?pf7
        psw    p8, 2(p0)
        rmax   s8, p8
        sw     s8, {STENCIL_RESULT_BASE}(s7)
        addi   s7, s7, 1
        j      loop
done:   halt
"
    )
}

/// Host model of the stencil: the per-iteration maxima, then the final
/// contents of row 2.
fn stencil_answer(a: &[i64], b: &[i64], acc0: &[i64]) -> Vec<i64> {
    let mut acc = acc0.to_vec();
    let mut p7 = vec![0i64; a.len()];
    let mut maxima = Vec::with_capacity(STENCIL_ITERS);
    for _ in 0..STENCIL_ITERS {
        let mut max = i64::MIN;
        for l in 0..a.len() {
            let p4 = (a[l] + b[l]) >> 1;
            let p5 = (acc[l] ^ a[l]) & 127;
            let p6 = p4 + p5;
            let f1 = a[l] < b[l];
            let f2 = p5 < p4;
            let f3 = f1 ^ f2;
            if f3 {
                p7[l] = a[l].max(acc[l]);
            }
            if f1 {
                p7[l] = b[l].min(p7[l]);
            }
            let mut p8 = ((p6 + p7[l]) >> 1) ^ p5;
            if f2 || f3 {
                p8 += 3;
            }
            if p8 <= a[l] && !f1 {
                p8 += 5;
            }
            acc[l] = p8;
            max = max.max(p8);
        }
        maxima.push(max);
    }
    maxima.extend(acc);
    maxima
}

fn stencil(rng: &mut Rng, sets: usize) -> MachineWorkload {
    let mut cfg = MachineConfig::new(STENCIL_PES).single_threaded();
    cfg.lmem_words = 4;
    let inputs = (0..sets)
        .map(|_| {
            let rows: Vec<Vec<i64>> =
                (0..3).map(|_| (0..STENCIL_PES).map(|_| rng.below(1024)).collect()).collect();
            InputSet {
                expected: words(&stencil_answer(&rows[0], &rows[1], &rows[2])),
                smem: Vec::new(),
                columns: (0..).zip(rows.iter().map(|r| words(r))).collect(),
            }
        })
        .collect();
    MachineWorkload {
        cfg,
        source: stencil_source(),
        readback: Readback {
            smem: STENCIL_RESULT_BASE..STENCIL_RESULT_BASE + STENCIL_ITERS as u32,
            column: Some(2),
        },
        inputs,
    }
}

// ---------------------------------------------------------- million_pe_query

const MILLION_PES: usize = 1 << 20;
const MILLION_CLUSTER: usize = 1024;
const MILLION_KEYS: usize = MILLION_PES / MILLION_CLUSTER;
const MILLION_QUERIES: usize = 8;
/// Per query: count, first responder's value, masked sum, max and min.
const MILLION_ANSWERS: usize = 5;
const MILLION_RESULT_BASE: u32 = 64;

/// Eight associative queries over the clustered database (compare,
/// count, resolve, pick, three masked reductions), then one unmasked
/// saturating sum over the whole array.
fn million_source() -> String {
    let mut src = String::from("        plw    p2, 0(p0)\n        plw    p3, 1(p0)\n");
    for q in 0..MILLION_QUERIES {
        let base = MILLION_RESULT_BASE as usize + q * MILLION_ANSWERS;
        let _ = write!(
            src,
            "        lw     s1, {q}(s0)
        pceqs  pf1, p2, s1
        rcount s2, pf1
        pfirst pf2, pf1
        rget   s3, p3, pf2
        rsum   s4, p3 ?pf1
        rmax   s5, p3 ?pf1
        rmin   s6, p3 ?pf1
"
        );
        for (k, reg) in (2..=6).enumerate() {
            let _ = writeln!(src, "        sw     s{reg}, {}(s0)", base + k);
        }
    }
    let total = MILLION_RESULT_BASE as usize + MILLION_QUERIES * MILLION_ANSWERS;
    let _ = write!(src, "        rsum   s9, p3\n        sw     s9, {total}(s0)\n        halt\n");
    src
}

/// Host model of the query batch over clusters of `MILLION_CLUSTER`
/// adjacent PEs, cluster `c` holding key `perm[c]`.
fn million_answer(perm: &[i64], vals: &[i64], queries: &[i64]) -> Vec<i64> {
    let mut out = Vec::with_capacity(MILLION_QUERIES * MILLION_ANSWERS + 1);
    for &q in queries {
        let c = perm.iter().position(|&k| k == q).expect("queries hit stored keys");
        let cluster = &vals[c * MILLION_CLUSTER..(c + 1) * MILLION_CLUSTER];
        out.extend([
            MILLION_CLUSTER as i64,
            cluster[0],
            cluster.iter().sum(),
            *cluster.iter().max().expect("non-empty cluster"),
            *cluster.iter().min().expect("non-empty cluster"),
        ]);
    }
    // values are non-negative, so the saturating tree sum is the clamped sum
    out.push(vals.iter().sum::<i64>().min(i16::MAX as i64));
    out
}

fn million(rng: &mut Rng, sets: usize) -> MachineWorkload {
    let mut cfg = MachineConfig::new(MILLION_PES).single_threaded();
    cfg.lmem_words = 2;
    let inputs = (0..sets)
        .map(|_| {
            let mut perm: Vec<i64> = (0..MILLION_KEYS as i64).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let keys: Vec<i64> = (0..MILLION_PES).map(|pe| perm[pe / MILLION_CLUSTER]).collect();
            // below 32, so a cluster's sum (at most 31 · 1024) never saturates
            let vals: Vec<i64> = (0..MILLION_PES).map(|_| rng.below(32)).collect();
            let queries: Vec<i64> =
                (0..MILLION_QUERIES).map(|_| rng.below(MILLION_KEYS as u64)).collect();
            InputSet {
                expected: words(&million_answer(&perm, &vals, &queries)),
                smem: (0..).zip(words(&queries)).collect(),
                columns: vec![(0, words(&keys)), (1, words(&vals))],
            }
        })
        .collect();
    let answers = (MILLION_QUERIES * MILLION_ANSWERS + 1) as u32;
    MachineWorkload {
        cfg,
        source: million_source(),
        readback: Readback {
            smem: MILLION_RESULT_BASE..MILLION_RESULT_BASE + answers,
            column: None,
        },
        inputs,
    }
}

// -------------------------------------------------------------- cli_cold_run

/// A small program in the shape of a typical `mtasc run` input: one
/// fusible run of 3 to 9 lane-local instructions, then a loop of 16 to 40
/// iterations around two reductions. Shorter runs would leave
/// `Machine::run`'s fixed epilogue above the traced split's 5%
/// unattributed limit. Program `i`'s run length and loop count depend on
/// `i` alone, so the seed changes the instructions but not the amount of
/// work: with both drawn from the seed, the reported rates spread 8%
/// (quartile distance over median) across ten seeds.
fn cli_program(rng: &mut Rng, i: u64) -> String {
    let mut src = format!("        pidx   p1\n        paddi  p2, p1, {}\n", rng.below(64));
    for _ in 0..2 + i % 7 {
        let line = match rng.below(7) {
            0 => "padd   p3, p2, p1".to_string(),
            1 => format!("pxori  p2, p2, {}", rng.below(128)),
            2 => format!("pandi  p3, p3, {}", rng.below(128)),
            3 => "psrli  p2, p2, 1".to_string(),
            4 => "pmax   p4, p2, p3".to_string(),
            5 => "pclt   pf1, p2, p3".to_string(),
            _ => format!("paddi  p4, p4, {} ?pf1", rng.below(16)),
        };
        let _ = writeln!(src, "        {line}");
    }
    let _ = write!(
        src,
        "        li     s1, 0
        li     s2, {}
        li     s3, 0
loop:   ceq    f1, s3, s2
        bt     f1, done
        rsum   s4, p2
        add    s1, s1, s4
        rmax   s5, p4
        add    s1, s1, s5
        paddi  p2, p2, 1
        addi   s3, s3, 1
        j      loop
done:   sw     s1, 0(s0)
        halt
",
        16 + i % 25
    );
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let fingerprint = |seed| match build("mt_query_fleet", seed, 2).unwrap() {
            Workload::Machine(w) => w.inputs[1].expected.clone(),
            Workload::Cli(_) => unreachable!(),
        };
        assert_eq!(fingerprint(7), fingerprint(7));
        assert_ne!(fingerprint(7), fingerprint(8));
        let cli = |seed| match build("cli_cold_run", seed, 0).unwrap() {
            Workload::Cli(p) => p,
            Workload::Machine(_) => unreachable!(),
        };
        assert_eq!(cli(3), cli(3));
        assert_ne!(cli(3), cli(4));
        assert!(build("no_such_workload", 1, 1).is_none());
    }

    #[test]
    fn every_source_assembles() {
        for name in NAMES {
            let sources = match build(name, 1, 1).unwrap() {
                Workload::Machine(w) => vec![w.source],
                Workload::Cli(p) => p,
            };
            for src in sources {
                asc_asm::assemble(&src).unwrap_or_else(|e| {
                    panic!("{name}:\n{}", asc_asm::render_errors(&e));
                });
            }
        }
    }
}
