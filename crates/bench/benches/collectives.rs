//! Criterion wall-clock benches of the collective substrate (figure F4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vmp_bench::common::cm2;
use vmp_bench::experiments::spanning_exp::{node_ids, root_payload};
use vmp_hypercube::collective;
use vmp_hypercube::slab::{NodeSlab, SegSlab};
use vmp_hypercube::spanning::{allreduce_rabenseifner, broadcast_with, BroadcastSchedule};

const DIM: u32 = 8;

fn bench_broadcast_schedules(c: &mut Criterion) {
    let mut g = c.benchmark_group("f4_broadcast");
    g.sample_size(10);
    let dims: Vec<u32> = (0..DIM).collect();
    for len in [64usize, 4096] {
        for (name, sched) in [
            ("binomial", BroadcastSchedule::Binomial),
            ("scatter_allgather", BroadcastSchedule::ScatterAllgather),
            ("allport_esbt", BroadcastSchedule::AllPortEsbt),
        ] {
            g.bench_with_input(BenchmarkId::new(name, len), &len, |b, &len| {
                b.iter(|| {
                    let mut hc = cm2(DIM);
                    let mut locals = root_payload(hc.p(), len);
                    broadcast_with(&mut hc, &mut locals, &dims, 0, sched);
                    std::hint::black_box(locals)
                });
            });
        }
    }
    g.finish();
}

fn bench_allreduce_schedules(c: &mut Criterion) {
    let mut g = c.benchmark_group("f4_allreduce");
    g.sample_size(10);
    let dims: Vec<u32> = (0..DIM).collect();
    for len in [64usize, 4096] {
        g.bench_with_input(BenchmarkId::new("butterfly", len), &len, |b, &len| {
            b.iter(|| {
                let mut hc = cm2(DIM);
                let mut locals = node_ids(hc.p(), len);
                collective::allreduce_slab(&mut hc, &mut locals, &dims, |a, b| a + b);
                std::hint::black_box(locals)
            });
        });
        g.bench_with_input(BenchmarkId::new("rabenseifner", len), &len, |b, &len| {
            b.iter(|| {
                let mut hc = cm2(DIM);
                let mut locals = node_ids(hc.p(), len);
                allreduce_rabenseifner(&mut hc, &mut locals, &dims, |a, b| a + b);
                std::hint::black_box(locals)
            });
        });
    }
    g.finish();
}

fn bench_scan_and_alltoall(c: &mut Criterion) {
    let mut g = c.benchmark_group("f4_scan_alltoall");
    g.sample_size(10);
    let dims: Vec<u32> = (0..DIM).collect();
    g.bench_function("scan_inclusive_256", |b| {
        b.iter(|| {
            let mut hc = cm2(DIM);
            let mut locals = NodeSlab::build(hc.p(), hc.p() * 256, |n, buf| {
                buf.extend(std::iter::repeat_n(n as u64, 256));
            });
            collective::scan_inclusive_slab(&mut hc, &mut locals, &dims, |a, b| a.wrapping_add(b));
            std::hint::black_box(locals)
        });
    });
    g.bench_function("alltoall_16_per_pair", |b| {
        b.iter(|| {
            let mut hc = cm2(DIM);
            let p = hc.p();
            let mut send = SegSlab::with_capacity(p, p, p * p * 16);
            for s in 0..p {
                for c in 0..p {
                    send.push_seg(&[(s * p + c) as u32; 16]);
                }
            }
            std::hint::black_box(collective::alltoall_slab(&mut hc, &send, &dims))
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_broadcast_schedules,
    bench_allreduce_schedules,
    bench_scan_and_alltoall
);
criterion_main!(benches);
