//! Criterion micro-benchmarks for the computational kernels behind every
//! figure: h-hop subgraph extraction (Fig. 10's dominant cost), DGCNN
//! forward/backward (training time in Figs. 7/9/10), locking insertion,
//! bit-parallel simulation (Fig. 8) and the resynthesis pass (Fig. 2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use muxlink_benchgen::synth::SynthConfig;
use muxlink_core::MuxLinkConfig;
use muxlink_gnn::activation::tanh_slice;
use muxlink_gnn::matrix::strided_gemm_into;
use muxlink_gnn::sample::{
    onehot_project_into, onehot_propagate_matmul_into, onehot_propagate_t_matmul_into,
    onehot_propagate_t_matmul_rows_into, onehot_scatter_add, plan_matmul_into,
    plan_t_matmul_rows_into, propagate_back_into, propagate_into, GraphSample, OneHotSpmmScratch,
};
use muxlink_gnn::{Csr, Dgcnn, DgcnnConfig, Layer0PlanView, Matrix, OneHotFeatures, Workspace};
use muxlink_graph::dataset::DatasetConfig;
use muxlink_graph::subgraph::enclosing_subgraph_ref;
use muxlink_graph::{build_dataset, extract};
use muxlink_locking::{dmux, symmetric, LockOptions};
use muxlink_netlist::sim::Simulator;

/// Deterministic sparse adjacency shaped like an enclosing subgraph
/// (average degree ≈ 3–4, like h-hop gate neighbourhoods).
fn subgraph_adj(n: usize) -> Csr {
    let mut lists = vec![Vec::new(); n];
    for i in 1..n {
        for j in [i / 2, i / 3] {
            if j != i {
                lists[i].push(j as u32);
                lists[j].push(i as u32);
            }
        }
    }
    Csr::from_lists(&lists)
}

/// Sample with dense random features (the legacy bench shape).
fn subgraph_sample(n: usize, input_dim: usize, seed: u64) -> GraphSample {
    let mut rng = muxlink_gnn::matrix::seeded_rng(seed);
    GraphSample {
        adj: subgraph_adj(n),
        features: Matrix::glorot(n, input_dim, &mut rng).into(),
        label: Some(true),
    }
}

/// Deterministic two-hot features of width `cols` over `n` nodes.
fn onehot_features(n: usize, cols: usize) -> OneHotFeatures {
    let gate = (0..n).map(|i| (i * 5 % 8) as u32).collect();
    let label = (0..n).map(|i| (i * 7 % (cols - 8)) as u32).collect();
    OneHotFeatures::new(cols, gate, label)
}

fn bench_subgraph(c: &mut Criterion) {
    let design = SynthConfig::new("k", 32, 16, 1500).generate(1);
    let locked = dmux::lock(&design, &LockOptions::new(32, 2)).unwrap();
    let ex = extract(&locked.netlist, &locked.key_input_names()).unwrap();
    let link = ex.muxes[0].link0();
    let mut group = c.benchmark_group("subgraph_extraction");
    for h in [1usize, 2, 3, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(h), &h, |b, &h| {
            b.iter(|| muxlink_graph::enclosing_subgraph(&ex.graph, link, h, None));
        });
    }
    group.finish();
}

fn bench_gnn(c: &mut Criterion) {
    let cfg = DgcnnConfig::paper(24, 30);
    let model = Dgcnn::new(cfg);
    let mut rng = muxlink_gnn::matrix::seeded_rng(7);
    // A 60-node binary-tree sample (legacy shape, kept for continuity
    // with earlier recorded numbers).
    let n = 60usize;
    let mut adj = vec![Vec::new(); n];
    for i in 1..n {
        let j = i / 2;
        adj[i].push(j as u32);
        adj[j].push(i as u32);
    }
    let sample = GraphSample {
        adj: Csr::from_lists(&adj),
        features: Matrix::glorot(n, 24, &mut rng).into(),
        label: Some(true),
    };
    c.bench_function("dgcnn_forward", |b| {
        b.iter(|| model.forward(&sample, None));
    });
    c.bench_function("dgcnn_forward_backward", |b| {
        b.iter(|| {
            let cache = model.forward(&sample, None);
            model.backward(&sample, &cache, true)
        });
    });
}

/// The CSR propagation kernel `S·H` at realistic enclosing-subgraph
/// sizes, through the reused-buffer entry point the model uses.
///
/// PR 4 SIMD-restructuring A/B (min-of-10 on the 1-CPU build box,
/// baseline x86-64 target): hand-blocking this kernel's inner zips into
/// `chunks_exact::<8>` was measured and **rejected** — `csr_propagate/100`
/// regressed 1.96µs → 3.41µs (~1.7× slower; LLVM already vectorizes the
/// short dynamic-length zips). The kernel keeps its plain loops; see the
/// primitives note in `muxlink_gnn::sample` and `BENCH_PR4.json`.
fn bench_propagate(c: &mut Criterion) {
    let mut group = c.benchmark_group("csr_propagate");
    for n in [30usize, 100, 300] {
        let adj = subgraph_adj(n);
        let mut rng = muxlink_gnn::matrix::seeded_rng(n as u64);
        let h = Matrix::glorot(n, 24, &mut rng);
        let mut out = Matrix::zeros(0, 0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| propagate_into(&adj, &h, &mut out));
        });
    }
    group.finish();
}

/// First-GC-layer forward+backward, dense reference vs. the two fused
/// sparse formulations, across feature widths F and subgraph sizes n.
///
/// * `dense_fwd_bwd` — `S·X` (n × F) then `(S·X)·W₀` forward,
///   `(S·X)ᵀ·dZ` backward (the pre-PR-3 path).
/// * `fused_exact_fwd_bwd` — the production path: `(S·X)·W₀` via
///   per-node column histograms, bit-identical to dense.
/// * `fused_fwd_bwd` — the reassociated maximum-throughput path:
///   two-row gather `X·W₀` (n × c₀) + c₀-wide propagation forward,
///   `Sᵀ·dZ` + two-row scatter-add backward (tolerance-equivalent).
///
/// PR 4 SIMD-restructuring A/B (min-of-10, same box/target): the fused
/// one-hot kernels' inner axpy **kept** the `chunks_exact::<8>` blocking
/// — wash to win, e.g. `fused_exact/F16_n300` 54.3µs plain → ~42µs
/// blocked, `F64_n100` 14.9 → ~14.2 — while `csr_propagate` rejected it
/// (see above). `f32::mul_add` rejected everywhere: single rounding
/// would change bits and break the bit-exact contract. Full numbers in
/// `BENCH_PR4.json`.
fn bench_sparse_layer0(c: &mut Criterion) {
    const C0: usize = 32; // first-layer channels (paper config)
    let mut group = c.benchmark_group("sparse_layer0");
    for f in [16usize, 64, 256] {
        for n in [30usize, 100, 300] {
            let adj = subgraph_adj(n);
            let x = onehot_features(n, f);
            let fm = x.to_dense();
            let xdense = Matrix::from_vec(fm.rows, fm.cols, fm.data);
            let mut rng = muxlink_gnn::matrix::seeded_rng((f * n) as u64);
            let w0 = Matrix::glorot(f, C0, &mut rng);
            let dz = Matrix::glorot(n, C0, &mut rng);

            let (mut sx, mut z, mut gw) = (Matrix::default(), Matrix::default(), Matrix::default());
            group.bench_with_input(
                BenchmarkId::new("dense_fwd_bwd", format!("F{f}_n{n}")),
                &n,
                |b, _| {
                    b.iter(|| {
                        propagate_into(&adj, &xdense, &mut sx);
                        sx.matmul_into(&w0, &mut z);
                        sx.t_matmul_into(&dz, &mut gw);
                    });
                },
            );

            let (mut ze, mut gwe) = (Matrix::default(), Matrix::default());
            let mut spmm = OneHotSpmmScratch::default();
            group.bench_with_input(
                BenchmarkId::new("fused_exact_fwd_bwd", format!("F{f}_n{n}")),
                &n,
                |b, _| {
                    b.iter(|| {
                        onehot_propagate_matmul_into(&adj, &x, &w0, &mut ze, &mut spmm);
                        onehot_propagate_t_matmul_into(&adj, &x, &dz, &mut gwe, &mut spmm);
                    });
                },
            );

            let (mut e, mut zf, mut dp, mut gwf) = (
                Matrix::default(),
                Matrix::default(),
                Matrix::default(),
                Matrix::default(),
            );
            group.bench_with_input(
                BenchmarkId::new("fused_fwd_bwd", format!("F{f}_n{n}")),
                &n,
                |b, _| {
                    b.iter(|| {
                        onehot_project_into(&x, &w0, &mut e);
                        propagate_into(&adj, &e, &mut zf);
                        propagate_back_into(&adj, &dz, &mut dp);
                        gwf.resize(f, C0);
                        onehot_scatter_add(&x, &dp, &mut gwf);
                    });
                },
            );
        }
    }
    group.finish();
}

/// Enclosing-subgraph extraction: the retained hash-based reference vs.
/// the epoch-stamped hash-free production path (bit-identical outputs).
fn bench_subgraph_extract(c: &mut Criterion) {
    let design = SynthConfig::new("k", 32, 16, 1500).generate(1);
    let locked = dmux::lock(&design, &LockOptions::new(32, 2)).unwrap();
    let ex = extract(&locked.netlist, &locked.key_input_names()).unwrap();
    let link = ex.muxes[0].link0();
    let mut group = c.benchmark_group("subgraph_extract");
    for h in [2usize, 3] {
        group.bench_with_input(BenchmarkId::new("hash", h), &h, |b, &h| {
            b.iter(|| enclosing_subgraph_ref(&ex.graph, link, h, None));
        });
        group.bench_with_input(BenchmarkId::new("stamped", h), &h, |b, &h| {
            b.iter(|| muxlink_graph::enclosing_subgraph(&ex.graph, link, h, None));
        });
    }
    group.finish();
}

/// Whole-sample forward (and forward+backward) at realistic
/// enclosing-subgraph sizes: the allocating path vs. the reused
/// per-worker workspace path the trainer and scorer run.
fn bench_forward_sizes(c: &mut Criterion) {
    let model = Dgcnn::new(DgcnnConfig::paper(24, 30));
    let mut group = c.benchmark_group("dgcnn_sample");
    for n in [30usize, 100, 300] {
        let s = subgraph_sample(n, 24, n as u64);
        group.bench_with_input(BenchmarkId::new("forward_alloc", n), &n, |b, _| {
            b.iter(|| model.forward(&s, None));
        });
        let mut ws = Workspace::new();
        group.bench_with_input(BenchmarkId::new("forward_ws", n), &n, |b, _| {
            b.iter(|| model.predict_into(&s, &mut ws));
        });
        let mut ws2 = Workspace::new();
        let mut grads = model.new_gradients();
        group.bench_with_input(BenchmarkId::new("fwd_bwd_ws", n), &n, |b, _| {
            b.iter(|| {
                model.forward_into(&s, None, &mut ws2);
                model.backward_into(&s, true, &mut ws2, &mut grads);
            });
        });
    }
    group.finish();
}

fn bench_locking(c: &mut Criterion) {
    let design = SynthConfig::new("k", 32, 16, 1200).generate(3);
    let mut group = c.benchmark_group("locking");
    group.sample_size(10);
    group.bench_function("dmux_k32", |b| {
        b.iter(|| dmux::lock(&design, &LockOptions::new(32, 5)).unwrap());
    });
    group.bench_function("symmetric_k32", |b| {
        b.iter(|| symmetric::lock(&design, &LockOptions::new(32, 5)).unwrap());
    });
    group.finish();
}

fn bench_sim(c: &mut Criterion) {
    let design = SynthConfig::new("k", 32, 16, 2000).generate(4);
    let sim = Simulator::new(&design).unwrap();
    let words: Vec<u64> = (0..32)
        .map(|i| 0x9E37_79B9_7F4A_7C15u64.rotate_left(i))
        .collect();
    c.bench_function("sim_2000_gates_64_patterns", |b| {
        b.iter(|| sim.run_words(&words));
    });
}

fn bench_resynth(c: &mut Criterion) {
    let design = SynthConfig::new("k", 24, 12, 800).generate(5);
    let locked = dmux::lock(&design, &LockOptions::new(8, 6)).unwrap();
    let mut constants = std::collections::HashMap::new();
    constants.insert("keyinput0".to_owned(), false);
    c.bench_function("resynthesize_800_gates", |b| {
        b.iter(|| muxlink_netlist::opt::resynthesize(&locked.netlist, &constants).unwrap());
    });
}

fn bench_dataset(c: &mut Criterion) {
    let design = SynthConfig::new("k", 24, 12, 800).generate(8);
    let locked = dmux::lock(&design, &LockOptions::new(16, 9)).unwrap();
    let ex = extract(&locked.netlist, &locked.key_input_names()).unwrap();
    let targets = ex.target_links();
    let cfg = DatasetConfig {
        h: 2,
        max_train_links: 200,
        val_fraction: 0.1,
        max_subgraph_nodes: Some(64),
        seed: 0,
        chunk: 0,
    };
    let mut group = c.benchmark_group("dataset");
    group.sample_size(10);
    group.bench_function("build_200_links_h2", |b| {
        b.iter(|| build_dataset(&ex.graph, &targets, &cfg));
    });
    group.finish();
}

/// Dataset residency: the owned per-sample-`Vec` build vs the
/// arena-pooled build (`build_dataset_arena`), plus the streamed
/// scoring-shaped iteration (extract chunk → read → clear) whose peak
/// resident sample bytes stay bounded by the chunk size. Timing lives
/// here; the byte accounting is recorded by the `dataset_residency`
/// binary (`cargo run -p muxlink-bench --bin dataset_residency`) and
/// appended to the BENCH_*.json trajectory.
fn bench_dataset_residency(c: &mut Criterion) {
    let design = SynthConfig::new("k", 24, 12, 800).generate(8);
    let locked = dmux::lock(&design, &LockOptions::new(16, 9)).unwrap();
    let ex = extract(&locked.netlist, &locked.key_input_names()).unwrap();
    let targets = ex.target_links();
    let mut group = c.benchmark_group("dataset_residency");
    group.sample_size(10);
    for links in [200usize, 600] {
        let cfg = DatasetConfig {
            h: 2,
            max_train_links: links,
            val_fraction: 0.1,
            max_subgraph_nodes: Some(64),
            seed: 0,
            chunk: 0,
        };
        group.bench_with_input(BenchmarkId::new("owned_build", links), &links, |b, _| {
            b.iter(|| build_dataset(&ex.graph, &targets, &cfg));
        });
        group.bench_with_input(BenchmarkId::new("arena_build", links), &links, |b, _| {
            b.iter(|| muxlink_graph::build_dataset_arena(&ex.graph, &targets, &cfg));
        });
        let chunked = DatasetConfig { chunk: 128, ..cfg };
        group.bench_with_input(
            BenchmarkId::new("arena_build_c128", links),
            &links,
            |b, _| {
                b.iter(|| muxlink_graph::build_dataset_arena(&ex.graph, &targets, &chunked));
            },
        );
    }
    group.finish();
}

/// The PR 6 tentpole: one fused propagate+GEMM per layer per minibatch
/// over a block-diagonal CSR vs the per-sample reference loop (forward,
/// backward and gradient merge per sample), at realistic subgraph sizes
/// and the trainer's batch sizes. Both paths produce identical bits
/// (property-tested); this group records the dispatch-overhead win.
fn bench_batched_layer(c: &mut Criterion) {
    use muxlink_gnn::{BatchWorkspace, Minibatch};
    let model = Dgcnn::new(DgcnnConfig::paper(24, 30));
    let mut group = c.benchmark_group("batched_layer");
    for batch in [8usize, 32] {
        for n in [30usize, 64] {
            let samples: Vec<GraphSample> = (0..batch)
                .map(|i| subgraph_sample(n, 24, (batch * n + i) as u64))
                .collect();
            let jobs: Vec<(usize, u64)> = (0..batch).map(|i| (i, i as u64 * 31 + 7)).collect();
            let id = format!("b{batch}_n{n}");

            let mut ws = Workspace::new();
            let mut acc = model.new_gradients();
            let mut slot = model.new_gradients();
            group.bench_with_input(BenchmarkId::new("per_sample", &id), &n, |b, _| {
                b.iter(|| {
                    for (s, &(i, seed)) in jobs.iter().enumerate() {
                        let v = samples[i].view();
                        let mut rng = muxlink_gnn::matrix::seeded_rng(seed);
                        model.forward_into(v, Some(&mut rng), &mut ws);
                        model.backward_into(v, true, &mut ws, &mut slot);
                        if s == 0 {
                            acc.copy_from(&slot);
                        } else {
                            acc.merge(&slot);
                        }
                    }
                });
            });

            let mut mb = Minibatch::new();
            let mut bws = BatchWorkspace::new();
            let mut grads = model.new_gradients();
            group.bench_with_input(BenchmarkId::new("block_diagonal", &id), &n, |b, _| {
                b.iter(|| {
                    mb.assemble(&samples[..], &jobs);
                    model.batch_train_step(&mb, 1.0, &mut bws, &mut grads);
                });
            });
        }
    }
    group.finish();
}

/// Builds one sample's layer-0 plan slabs with the arena builder's
/// histogram logic (the production builder is pinned bitwise against the
/// dense reference in `muxlink-graph`'s arena tests; this bench-local
/// copy keeps the group free of arena plumbing).
fn plan_slabs(adj: &Csr, x: &OneHotFeatures) -> (Vec<u32>, Vec<u32>, Vec<f32>) {
    let adjv: muxlink_gnn::CsrView<'_> = adj.into();
    let xv = x.view();
    let (mut offsets, mut cols, mut vals) = (vec![0u32], Vec::new(), Vec::new());
    let mut counts = vec![0u32; xv.cols()];
    for i in 0..adjv.node_count() {
        let (g, l) = xv.columns(i);
        counts[g] += 1;
        counts[l] += 1;
        for &j in adjv.neighbors(i) {
            let (g, l) = xv.columns(j as usize);
            counts[g] += 1;
            counts[l] += 1;
        }
        for (c, cnt) in counts.iter_mut().enumerate() {
            if *cnt > 0 {
                cols.push(c as u32);
                vals.push((*cnt as f32) * adjv.scale(i));
                *cnt = 0;
            }
        }
        offsets.push(cols.len() as u32);
    }
    (offsets, cols, vals)
}

/// The PR 8 tentpole: layer-0 forward+backward from the epoch-invariant
/// cached `S·X` plan vs the per-epoch histogram rebuild it replaces
/// (bit-identical outputs; the cached path skips every per-node
/// histogram fill + sort per epoch). CI runs this group with `--test`.
fn bench_layer0_plan(c: &mut Criterion) {
    const F: usize = 24; // feature width (gate types + label budget)
    const C0: usize = 32; // first-layer channels (paper config)
    let mut group = c.benchmark_group("layer0_plan");
    for n in [30usize, 100, 300] {
        let adj = subgraph_adj(n);
        let x = onehot_features(n, F);
        let mut rng = muxlink_gnn::matrix::seeded_rng(n as u64);
        let w0 = Matrix::glorot(F, C0, &mut rng);
        let dz = Matrix::glorot(n, C0, &mut rng);

        let (mut z, mut gw) = (Matrix::default(), Matrix::default());
        let mut spmm = OneHotSpmmScratch::default();
        group.bench_with_input(BenchmarkId::new("rebuild_fwd_bwd", n), &n, |b, _| {
            b.iter(|| {
                onehot_propagate_matmul_into(&adj, &x, &w0, &mut z, &mut spmm);
                onehot_propagate_t_matmul_rows_into(&adj, &x, &dz, 0..n, &mut gw, &mut spmm);
            });
        });

        let (off, cols, vals) = plan_slabs(&adj, &x);
        let (mut zc, mut gwc) = (Matrix::default(), Matrix::default());
        group.bench_with_input(BenchmarkId::new("cached_fwd_bwd", n), &n, |b, _| {
            b.iter(|| {
                let plan = Layer0PlanView::from_raw_parts(&off, &cols, &vals);
                plan_matmul_into(plan, &w0, &mut zc);
                plan_t_matmul_rows_into(plan, &dz, 0..n, F, &mut gwc);
            });
        });

        group.bench_with_input(BenchmarkId::new("plan_build", n), &n, |b, _| {
            b.iter(|| plan_slabs(&adj, &x));
        });
    }
    group.finish();
}

/// The graph-convolution activation: host libm `tanhf` per element vs
/// the in-repo port's `tanh_slice` (bit-identical outputs). Sizes are one
/// GC layer's `n × 32` activations, uniform in (−0.5, 0.5) (`narrow`: the
/// lane kernel, which trained activations almost always take) or in
/// (−3, 3) (`wide`: every `tanhf` branch below the saturation edge, nearly
/// all through the scalar port). CI runs this group with `--test`.
fn bench_activation(c: &mut Criterion) {
    let mut group = c.benchmark_group("activation");
    group.sample_size(2000);
    for n in [30usize, 100, 300] {
        for (range, half_width) in [("wide", 3.0f32), ("narrow", 0.5)] {
            let mut rng = muxlink_gnn::matrix::seeded_rng(n as u64);
            let mut x = Matrix::glorot(n, 32, &mut rng);
            x.scale(half_width / (6.0 / (n + 32) as f32).sqrt());
            let mut y = x.clone();
            let id = format!("{range}/{n}");
            group.bench_with_input(BenchmarkId::new("libm_tanhf", &id), &n, |b, _| {
                b.iter(|| {
                    y.data_mut().copy_from_slice(x.data());
                    for v in y.data_mut() {
                        *v = v.tanh();
                    }
                });
            });
            group.bench_with_input(BenchmarkId::new("tanh_slice", &id), &n, |b, _| {
                b.iter(|| {
                    y.data_mut().copy_from_slice(x.data());
                    tanh_slice(y.data_mut());
                });
            });
        }
    }
    group.finish();
}

/// The two 1-D convolutions at the paper's shapes (k = 30: conv1 over
/// 30 pooled rows of width 97, conv2 over 15 × 16 with kernel 5): the
/// per-output dot loops vs the output-vectorised strided GEMM
/// (bit-identical outputs). CI runs this group with `--test`.
fn bench_conv_forward(c: &mut Criterion) {
    const K: usize = 30;
    const CCAT: usize = 97;
    const C1: usize = 16;
    const C2: usize = 32;
    const KK: usize = 5;
    let (k2, k3) = (K / 2, K / 2 + 1 - KK);
    let mut rng = muxlink_gnn::matrix::seeded_rng(5);
    let pooled = Matrix::glorot(K, CCAT, &mut rng);
    let w1 = Matrix::glorot(C1, CCAT, &mut rng);
    let pool_out = Matrix::glorot(k2, C1, &mut rng);
    let w2 = Matrix::glorot(C2, KK * C1, &mut rng);
    let b2 = Matrix::glorot(1, C2, &mut rng);
    let (w1t, w2t) = (w1.transpose(), w2.transpose());
    let mut out = Matrix::default();
    let mut group = c.benchmark_group("conv_forward");
    group.sample_size(2000);
    group.bench_function("conv1_matmul_t", |b| {
        b.iter(|| pooled.matmul_t_into(&w1, &mut out));
    });
    group.bench_function("conv1_strided_gemm", |b| {
        b.iter(|| {
            out.resize_for_overwrite(K, C1);
            strided_gemm_into(pooled.data(), CCAT, &w1t, None, out.data_mut());
        });
    });
    group.bench_function("conv2_dot_loops", |b| {
        b.iter(|| {
            out.resize_for_overwrite(k3, C2);
            for t in 0..k3 {
                for o in 0..C2 {
                    let mut acc = b2.get(0, o);
                    for (w, p) in w2.row(o).iter().zip(&pool_out.data()[t * C1..]) {
                        acc += w * p;
                    }
                    out.set(t, o, acc);
                }
            }
        });
    });
    group.bench_function("conv2_strided_gemm", |b| {
        b.iter(|| {
            out.resize_for_overwrite(k3, C2);
            strided_gemm_into(pool_out.data(), C1, &w2t, Some(b2.data()), out.data_mut());
        });
    });
    group.finish();
}

fn bench_quick_profile_constant(_c: &mut Criterion) {
    // Sanity anchor: the quick attack profile must exist for the pipeline
    // bench in `pipeline.rs` (compile-time cross-check only).
    let _ = MuxLinkConfig::quick();
}

criterion_group!(
    kernels,
    bench_subgraph,
    bench_gnn,
    bench_propagate,
    bench_sparse_layer0,
    bench_subgraph_extract,
    bench_forward_sizes,
    bench_locking,
    bench_sim,
    bench_resynth,
    bench_dataset,
    bench_dataset_residency,
    bench_batched_layer,
    bench_layer0_plan,
    bench_activation,
    bench_conv_forward,
    bench_quick_profile_constant
);
criterion_main!(kernels);
