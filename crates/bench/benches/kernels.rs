//! Criterion micro-benchmarks: one representative point per kernel and
//! scheme, for regression tracking. The full figure sweeps live in the
//! `repro` binary; these benches are deliberately small and fast.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use tempora_baseline::{dlt, multiload, reorg};
use tempora_core::engine::Engine;
use tempora_core::kernels::*;
use tempora_core::{lcs, t1d, t2d, t3d};
use tempora_grid::*;
use tempora_stencil::*;

fn heat1d_schemes(crit: &mut Criterion) {
    let n = 1 << 16;
    let steps = 32;
    let c = Heat1dCoeffs::classic(0.25);
    let kern = JacobiKern1d(c);
    let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.0));
    fill_random_1d(&mut g, 1, -1.0, 1.0);

    let mut group = crit.benchmark_group("heat1d_64k_x32");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(800));
    group.bench_function("temporal_s7", |b| {
        b.iter(|| std::hint::black_box(t1d::run::<4, _>(&g, &kern, steps, 7)))
    });
    group.bench_function("temporal_s2", |b| {
        b.iter(|| std::hint::black_box(t1d::run::<4, _>(&g, &kern, steps, 2)))
    });
    group.bench_function("multiload", |b| {
        b.iter(|| std::hint::black_box(multiload::heat1d(&g, c, steps)))
    });
    group.bench_function("reorg", |b| {
        b.iter(|| std::hint::black_box(reorg::heat1d(&g, c, steps)))
    });
    group.bench_function("dlt", |b| {
        b.iter(|| std::hint::black_box(dlt::heat1d(&g, c, steps)))
    });
    group.bench_function("scalar", |b| {
        b.iter(|| std::hint::black_box(reference::heat1d(&g, c, steps)))
    });
    group.finish();
}

fn heat2d_schemes(crit: &mut Criterion) {
    let n = 256;
    let steps = 8;
    let c = Heat2dCoeffs::classic(0.125);
    let kern = JacobiKern2d(c);
    let mut g = Grid2::new(n, n, 1, Boundary::Dirichlet(0.0));
    fill_random_2d(&mut g, 1, -1.0, 1.0);

    let mut group = crit.benchmark_group("heat2d_256_x8");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(800));
    group.bench_function("temporal", |b| {
        b.iter(|| std::hint::black_box(t2d::run::<f64, 4, _>(&g, &kern, steps, 2)))
    });
    group.bench_function("multiload", |b| {
        b.iter(|| std::hint::black_box(multiload::heat2d(&g, c, steps)))
    });
    group.bench_function("scalar", |b| {
        b.iter(|| std::hint::black_box(reference::heat2d(&g, c, steps)))
    });
    group.finish();
}

fn heat3d_schemes(crit: &mut Criterion) {
    let n = 48;
    let steps = 8;
    let c = Heat3dCoeffs::classic(1.0 / 6.0);
    let kern = JacobiKern3d(c);
    let mut g = Grid3::new(n, n, n, 1, Boundary::Dirichlet(0.0));
    fill_random_3d(&mut g, 1, -1.0, 1.0);

    let mut group = crit.benchmark_group("heat3d_48_x8");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(800));
    group.bench_function("temporal", |b| {
        b.iter(|| std::hint::black_box(t3d::run::<f64, 4, _>(&g, &kern, steps, 2)))
    });
    group.bench_function("multiload", |b| {
        b.iter(|| std::hint::black_box(multiload::heat3d(&g, c, steps)))
    });
    group.bench_function("scalar", |b| {
        b.iter(|| std::hint::black_box(reference::heat3d(&g, c, steps)))
    });
    group.finish();
}

fn life_schemes(crit: &mut Criterion) {
    let n = 256;
    let steps = 16;
    let rule = LifeRule::b2s23();
    let kern = LifeKern2d(rule);
    let mut g = Grid2::<i32>::new(n, n, 1, Boundary::Dirichlet(0));
    fill_random_life(&mut g, 1, 0.35);

    let mut group = crit.benchmark_group("life_256_x16");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(800));
    group.bench_function("temporal_vl8", |b| {
        b.iter(|| std::hint::black_box(t2d::run::<i32, 8, _>(&g, &kern, steps, 2)))
    });
    if tempora_simd::arch::avx2_available() {
        group.bench_function("temporal_vl8_avx2", |b| {
            b.iter(|| {
                let mut out = g.clone();
                let mut sc = t2d::Scratch2d::<i32, 8>::new(2, out.ny());
                for _ in 0..steps / 8 {
                    t2d::tile(Engine::Avx2, &mut out, &kern, 2, &mut sc);
                }
                std::hint::black_box(out)
            })
        });
    }
    group.bench_function("multiload", |b| {
        b.iter(|| std::hint::black_box(multiload::life(&g, rule, steps)))
    });
    group.bench_function("scalar", |b| {
        b.iter(|| std::hint::black_box(reference::life(&g, rule, steps)))
    });
    group.finish();
}

fn gs_schemes(crit: &mut Criterion) {
    let n = 1 << 16;
    let steps = 16;
    let c = Gs1dCoeffs::classic(0.25);
    let kern = GsKern1d(c);
    let mut g = Grid1::new(n, 1, Boundary::Dirichlet(0.0));
    fill_random_1d(&mut g, 1, -1.0, 1.0);

    let mut group = crit.benchmark_group("gs1d_64k_x16");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(800));
    group.bench_function("temporal_s7", |b| {
        b.iter(|| std::hint::black_box(t1d::run::<4, _>(&g, &kern, steps, 7)))
    });
    group.bench_function("scalar", |b| {
        b.iter(|| std::hint::black_box(reference::gs1d(&g, c, steps)))
    });
    group.finish();
}

/// LCS length with the AVX2 steady state (`a.len()` a multiple of 8).
fn lcs_avx2_len(a: &[u8], b: &[u8], s: usize) -> i32 {
    let mut row = vec![0i32; b.len() + 1];
    let mut sc = lcs::ScratchLcs::<8>::new(s);
    for a_tile in a.chunks_exact(8) {
        lcs::tile(Engine::Avx2, &mut row, a_tile, b, s, &mut sc);
    }
    row[b.len()]
}

fn lcs_schemes(crit: &mut Criterion) {
    let n = 2048;
    let a = random_sequence(n, 4, 1);
    let b_seq = random_sequence(n, 4, 2);

    let mut group = crit.benchmark_group("lcs_2k");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(800));
    group.bench_function("temporal_i32x8", |b| {
        b.iter(|| std::hint::black_box(lcs::length(&a, &b_seq, 1)))
    });
    if tempora_simd::arch::avx2_available() {
        group.bench_function("temporal_i32x8_avx2", |b| {
            b.iter(|| std::hint::black_box(lcs_avx2_len(&a, &b_seq, 1)))
        });
        group.bench_function("temporal_i32x8_avx2_s2", |b| {
            b.iter(|| std::hint::black_box(lcs_avx2_len(&a, &b_seq, 2)))
        });
    }
    group.bench_function("scalar", |b| {
        b.iter(|| std::hint::black_box(reference::lcs_len(&a, &b_seq)))
    });
    group.finish();
}

criterion_group!(
    benches,
    heat1d_schemes,
    heat2d_schemes,
    heat3d_schemes,
    life_schemes,
    gs_schemes,
    lcs_schemes
);
criterion_main!(benches);
