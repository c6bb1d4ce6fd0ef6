//! Criterion benchmarks of the broadcast/reduction network's functional
//! models and the assembler — the substrates' hot paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use asc_isa::{FlagReduceOp, PFlag, ReduceOp, Width, Word};
use asc_network::{MultipleResponseResolver, Network, NetworkConfig};
use asc_pe::{ActiveMask, ArrayConfig, PeArray, SegmentGeometry};

fn bench_reductions(c: &mut Criterion) {
    let mut g = c.benchmark_group("network_reduce");
    for p in [1024usize, 65536] {
        let net = Network::new(NetworkConfig::new(p, 4));
        let values: Vec<Word> = (0..p).map(|i| Word::new(i as u32 & 0xffff, Width::W16)).collect();
        let active = ActiveMask::all(p);
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Or] {
            g.bench_with_input(BenchmarkId::new(format!("{op}"), p), &p, |b, _| {
                b.iter(|| black_box(net.reduce(op, &values, &active, Width::W16)))
            });
        }
    }
    g.finish();
}

/// Reductions at 2²⁰ PEs: the saturating sum, unsigned max and logic OR,
/// each unmasked and masked to one 1024-PE cluster (the clustered
/// key/value layout of the `pe_scaling` bench), at the detected SIMD tier
/// (`MTASC_NO_SIMD=1` for scalar). The values are non-negative, so the
/// sum rows measure its same-sign pass, and `rsum-mixed-dense` measures
/// the tile tree it falls back to on groups that hold both signs (with
/// what the pass costs before it gives up); the other dense rows measure
/// the one-pass units' word loops, and the clustered rows occupancy
/// pruning.
fn bench_reductions_at_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("network_reduce");
    let p = 1usize << 20;
    let w = Width::W16;
    let values: Vec<Word> = (0..p).map(|i| Word::new((i as u32).wrapping_mul(7) & 31, w)).collect();
    let dense = ActiveMask::all(p);
    let (_, clustered) = cluster1024(p);
    let net = Network::new(NetworkConfig::new(p, 4));
    for op in [ReduceOp::Sum, ReduceOp::MaxU, ReduceOp::Or] {
        for (label, mask) in [("dense", &dense), ("cluster1024", &clustered)] {
            let id = BenchmarkId::new(format!("{op}-{label}"), p);
            g.bench_with_input(id, &p, |b, _| {
                b.iter(|| black_box(net.reduce(op, &values, mask, w)))
            });
        }
    }
    let mixed: Vec<Word> = (0..p).map(|i| Word::from_i64(((i as i64 * 7) & 31) - 16, w)).collect();
    g.bench_with_input(BenchmarkId::new("rsum-mixed-dense", p), &p, |b, _| {
        b.iter(|| black_box(net.reduce(ReduceOp::Sum, &mixed, &dense, w)))
    });
    g.finish();
}

/// A flag plane whose one set run is the 1024 lanes of cluster 517 (the
/// `cluster1024` layout), and the mask filled from it.
fn cluster1024(p: usize) -> (Vec<u64>, ActiveMask) {
    let mut plane = vec![0u64; p / 64];
    let cluster = 517 * 1024 / 64;
    plane[cluster..cluster + 1024 / 64].fill(u64::MAX);
    let mut clustered = ActiveMask::new(p);
    clustered.copy_from_plane(&plane);
    (plane, clustered)
}

/// The responder ops at 2²⁰ PEs, each unmasked and over the `cluster1024`
/// mask, at the detected SIMD tier: `rcount`; `pfirst`, the first
/// responder plus its one-hot write into a flag plane; `rget`, the first
/// responder of that one-hot plane and its value; and `rany`. The flag
/// plane's responders are every third lane from 700,002 on, past the
/// cluster, so an unmasked scan runs to lane 700,002 and a clustered one
/// searches one group and finds none. One more row refills a `?pf` mask
/// buffer from the one-cluster plane, as every masked instruction does.
fn bench_responders_at_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("network_responders");
    let p = 1usize << 20;
    let w = Width::W16;
    let net = Network::new(NetworkConfig::new(p, 4));
    let dense = ActiveMask::all(p);
    let (cluster_plane, clustered) = cluster1024(p);
    let responders: Vec<bool> = (0..p).map(|i| i >= 700_000 && i % 3 == 0).collect();
    let flags = ActiveMask::from_bools(&responders).words().to_vec();
    let mut one_hot = vec![0u64; p / 64];
    let hit = net.first_responder(&flags, &dense).expect("a responder");
    one_hot[hit / 64] = 1 << (hit % 64);
    let mut array = PeArray::new(ArrayConfig {
        num_pes: p,
        threads: 1,
        lmem_words: 1,
        segments: SegmentGeometry::new(p, 0),
        ..ArrayConfig::prototype()
    });
    let values = array.gpr_plane(0, 1).to_vec();
    for (label, mask) in [("dense", &dense), ("cluster1024", &clustered)] {
        g.bench_with_input(BenchmarkId::new(format!("rcount-{label}"), p), &p, |b, _| {
            b.iter(|| black_box(net.count_responders(&flags, mask, w)))
        });
        g.bench_with_input(BenchmarkId::new(format!("pfirst-{label}"), p), &p, |b, _| {
            b.iter(|| {
                let hit = net.first_responder(&flags, mask);
                array.write_first_responder(0, PFlag::from_index(2), hit, mask);
                black_box(hit)
            })
        });
        g.bench_with_input(BenchmarkId::new(format!("rget-{label}"), p), &p, |b, _| {
            b.iter(|| {
                let hit = net.first_responder(&one_hot, mask);
                black_box(hit.map_or(Word::ZERO, |i| values[i]))
            })
        });
        g.bench_with_input(BenchmarkId::new(format!("rany-{label}"), p), &p, |b, _| {
            b.iter(|| black_box(net.reduce_flags(FlagReduceOp::Any, &flags, mask)))
        });
    }
    let mut buf = ActiveMask::new(p);
    g.bench_with_input(BenchmarkId::new("pf_fill-cluster1024", p), &p, |b, _| {
        b.iter(|| {
            buf.copy_from_plane(black_box(&cluster_plane));
            black_box(buf.words().len())
        })
    });
    g.finish();
}

fn bench_resolver(c: &mut Criterion) {
    let mut g = c.benchmark_group("network_mrr");
    for p in [1024usize, 65536] {
        let flags: Vec<bool> = (0..p).map(|i| i % 97 == 3).collect();
        let packed = ActiveMask::from_bools(&flags).words().to_vec();
        let active = ActiveMask::all(p);
        let net = Network::new(NetworkConfig::new(p, 4));
        // the bitplane fast path the executor uses
        g.bench_with_input(BenchmarkId::new("bitplane", p), &p, |b, _| {
            b.iter(|| black_box(net.first_responder(&packed, &active)))
        });
        // the one-hot parallel-prefix specification, for comparison
        let active_bools = vec![true; p];
        g.bench_with_input(BenchmarkId::new("prefix", p), &p, |b, _| {
            b.iter(|| black_box(MultipleResponseResolver::resolve(&flags, &active_bools)))
        });
    }
    g.finish();
}

fn bench_assembler(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    // a 2k-instruction program in canonical syntax
    let mut rng = StdRng::seed_from_u64(3);
    let src: String = (0..2048)
        .map(|_| asc_asm::disassemble(&asc_isa::gen::random_instr(&mut rng)) + "\n")
        .collect();
    c.bench_function("assembler_throughput_2k", |b| {
        b.iter(|| black_box(asc_asm::assemble(&src).map(|p| p.len())))
    });
}

fn bench_encode_decode(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(9);
    let instrs: Vec<_> = (0..4096).map(|_| asc_isa::gen::random_instr(&mut rng)).collect();
    let words: Vec<u32> = instrs.iter().map(asc_isa::encode).collect();
    c.bench_function("isa_decode_4k", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for &w in &words {
                if asc_isa::decode(w).is_ok() {
                    n += 1;
                }
            }
            black_box(n)
        })
    });
}

fn bench_lang_compile(c: &mut Criterion) {
    // a representative ASCL program, compiled end to end
    let src = "
        par score;
        score = index() * 7 % 100;
        sca passing = 60;
        out(count(score >= passing));
        where (score < passing) {
            score = score + 15;
        } elsewhere {
            where (score > 90) { out(first(index())); }
        }
        out(count(score >= passing));
    "
    .to_string(); // single unit; compile includes lex/parse/codegen/assemble
    c.bench_function("ascl_compile", |b| {
        b.iter(|| black_box(asc_lang::compile_program(&src).map(|p| p.len())))
    });
}

criterion_group!(
    benches,
    bench_reductions,
    bench_reductions_at_scale,
    bench_responders_at_scale,
    bench_resolver,
    bench_assembler,
    bench_encode_decode,
    bench_lang_compile
);
criterion_main!(benches);
