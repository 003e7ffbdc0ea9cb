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
    plan_matmul_into, plan_t_matmul_rows_into, propagate_back_into, propagate_into, GraphSample,
};
use muxlink_gnn::{
    AdamConfig, AdamState, BatchWorkspace, Csr, Dgcnn, DgcnnConfig, Gradients, Layer0Plans, Matrix,
    Minibatch, OneHotFeatures,
};
use muxlink_graph::dataset::DatasetConfig;
use muxlink_graph::{build_dataset_arena, extract, SampleArena};
use muxlink_integration_tests::reference::{Reference, Workspace};
use muxlink_integration_tests::subgraph_oracle::enclosing_subgraph_ref;
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

/// Sample with two-hot features of width `input_dim`, varied by `seed`.
fn subgraph_sample(n: usize, input_dim: usize, seed: u64) -> GraphSample {
    GraphSample {
        adj: subgraph_adj(n),
        features: onehot_features(n, input_dim, seed as usize),
        label: Some(true),
    }
}

/// Deterministic two-hot features of width `cols` over `n` nodes,
/// varied by `seed`.
fn onehot_features(n: usize, cols: usize, seed: usize) -> OneHotFeatures {
    let gate = (0..n).map(|i| ((i * 5 + seed) % 8) as u32).collect();
    let label = (0..n)
        .map(|i| ((i * 7 + seed) % (cols - 8)) as u32)
        .collect();
    OneHotFeatures::new(cols, gate, label)
}

/// The layer-0 plan of one sample, built by the production builder.
fn built_plan(adj: &Csr, x: &OneHotFeatures) -> Layer0Plans {
    let mut plans = Layer0Plans::new();
    plans.push_sample(adj.view(), x.view());
    plans
}

fn bench_gnn(c: &mut Criterion) {
    let cfg = DgcnnConfig::paper(24, 30);
    let model = Dgcnn::new(cfg);
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
        features: onehot_features(n, 24, 7),
        label: Some(true),
    };
    let one = std::slice::from_ref(&sample);
    c.bench_function("dgcnn_forward", |b| {
        b.iter(|| model.predict_batch(one));
    });
    let (mut mb, mut ws, mut grads) = (
        Minibatch::new(),
        BatchWorkspace::new(),
        model.new_gradients(),
    );
    c.bench_function("dgcnn_forward_backward", |b| {
        b.iter(|| {
            mb.assemble(one, &[(0, 7)]);
            model.batch_train_step(&mb, &mut ws, &mut grads);
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

/// First-GC-layer forward+backward, dense reference vs. the sparse plan
/// kernels the model runs, across feature widths F and subgraph sizes n.
///
/// * `dense_fwd_bwd` — `S·X` (n × F) then `(S·X)·W₀` forward,
///   `(S·X)ᵀ·dZ` backward (the pre-PR-3 path).
/// * `cached_fwd_bwd` — the production path: the same products over
///   the sparse plan rows of `S·X` (built once, outside the loop),
///   bit-identical to dense.
///
/// PR 4 SIMD-restructuring A/B (min-of-10, same box/target): the
/// one-hot layer-0 kernels' inner axpy **kept** the `chunks_exact::<8>`
/// blocking — wash to win, e.g. `F16_n300` 54.3µs plain → ~42µs
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
            let x = onehot_features(n, f, 0);
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

            let plans = built_plan(&adj, &x);
            group.bench_with_input(
                BenchmarkId::new("cached_fwd_bwd", format!("F{f}_n{n}")),
                &n,
                |b, _| {
                    b.iter(|| {
                        plan_matmul_into(plans.view(), &w0, &mut z);
                        plan_t_matmul_rows_into(plans.view(), &dz, 0..n, f, &mut gw);
                    });
                },
            );
        }
    }
    group.finish();
}

/// Enclosing-subgraph extraction (Fig. 10's dominant cost): the
/// `HashMap` link oracle vs. the production path, which writes the
/// sample straight into a cleared arena (bit-identical content).
fn bench_subgraph_extract(c: &mut Criterion) {
    let design = SynthConfig::new("k", 32, 16, 1500).generate(1);
    let locked = dmux::lock(&design, &LockOptions::new(32, 2)).unwrap();
    let ex = extract(&locked.netlist, &locked.key_input_names()).unwrap();
    let link = ex.muxes[0].link0();
    let mut group = c.benchmark_group("subgraph_extract");
    let mut arena = SampleArena::new();
    for h in [1usize, 2, 3, 4] {
        group.bench_with_input(BenchmarkId::new("hash", h), &h, |b, &h| {
            b.iter(|| enclosing_subgraph_ref(&ex.graph, link, h, None));
        });
        group.bench_with_input(BenchmarkId::new("arena", h), &h, |b, &h| {
            b.iter(|| {
                arena.clear();
                arena.extract_sample(&ex.graph, link, h, None, None)
            });
        });
    }
    group.finish();
}

/// Whole-sample forward (and forward+backward) at realistic
/// enclosing-subgraph sizes through the production entry points: the
/// scorer (`predict_batch` on one sample) and one training step on a
/// one-sample minibatch (assembly included).
fn bench_forward_sizes(c: &mut Criterion) {
    let model = Dgcnn::new(DgcnnConfig::paper(24, 30));
    let mut group = c.benchmark_group("dgcnn_sample");
    for n in [30usize, 100, 300] {
        let s = [subgraph_sample(n, 24, n as u64)];
        group.bench_with_input(BenchmarkId::new("predict_batch", n), &n, |b, _| {
            b.iter(|| model.predict_batch(&s[..]));
        });
        let (mut mb, mut ws) = (Minibatch::new(), BatchWorkspace::new());
        let mut grads = model.new_gradients();
        group.bench_with_input(BenchmarkId::new("batch_train_step", n), &n, |b, _| {
            b.iter(|| {
                mb.assemble(&s[..], &[(0, 7)]);
                model.batch_train_step(&mb, &mut ws, &mut grads);
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
        b.iter(|| build_dataset_arena(&ex.graph, &targets, &cfg));
    });
    group.finish();
}

/// The PR 6 tentpole: one fused propagate+GEMM per layer per minibatch
/// over a block-diagonal CSR vs the per-sample reference loop (forward,
/// backward and gradient merge per sample, the test-support oracle
/// model), at realistic subgraph sizes and the trainer's batch sizes.
/// Both paths produce identical bits (property-tested); this group
/// records the dispatch-overhead win.
fn bench_batched_layer(c: &mut Criterion) {
    let model = Dgcnn::new(DgcnnConfig::paper(24, 30));
    let mut group = c.benchmark_group("batched_layer");
    for batch in [8usize, 32] {
        for n in [30usize, 64] {
            let samples: Vec<GraphSample> = (0..batch)
                .map(|i| subgraph_sample(n, 24, (batch * n + i) as u64))
                .collect();
            let jobs: Vec<(usize, u64)> = (0..batch).map(|i| (i, i as u64 * 31 + 7)).collect();
            let id = format!("b{batch}_n{n}");

            let reference = Reference::new(&model);
            let mut ws = Workspace::new();
            let mut acc = model.new_gradients();
            let mut slot = model.new_gradients();
            group.bench_with_input(BenchmarkId::new("per_sample", &id), &n, |b, _| {
                b.iter(|| {
                    for (s, &(i, seed)) in jobs.iter().enumerate() {
                        let v = samples[i].view();
                        let mut rng = muxlink_gnn::matrix::seeded_rng(seed);
                        reference.forward_into(v, Some(&mut rng), &mut ws);
                        reference.backward_into(v, true, &mut ws, &mut slot);
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
                    model.batch_train_step(&mb, &mut bws, &mut grads);
                });
            });
        }
    }
    group.finish();
}

/// The layer-0 plan: building one sample's sparse `S·X` rows with the
/// production builder (`plan_build`, what a minibatch pays per sample
/// every time it packs one) and the forward+backward over rows built
/// outside the loop (`cached_fwd_bwd`, named before plans were built
/// per minibatch). CI runs this group with `--test`.
fn bench_layer0_plan(c: &mut Criterion) {
    const F: usize = 24; // feature width (gate types + label budget)
    const C0: usize = 32; // first-layer channels (paper config)
    let mut group = c.benchmark_group("layer0_plan");
    for n in [30usize, 100, 300] {
        let adj = subgraph_adj(n);
        let x = onehot_features(n, F, 0);
        let mut rng = muxlink_gnn::matrix::seeded_rng(n as u64);
        let w0 = Matrix::glorot(F, C0, &mut rng);
        let dz = Matrix::glorot(n, C0, &mut rng);

        let plans = built_plan(&adj, &x);
        let (mut zc, mut gwc) = (Matrix::default(), Matrix::default());
        group.bench_with_input(BenchmarkId::new("cached_fwd_bwd", n), &n, |b, _| {
            b.iter(|| {
                plan_matmul_into(plans.view(), &w0, &mut zc);
                plan_t_matmul_rows_into(plans.view(), &dz, 0..n, F, &mut gwc);
            });
        });

        let mut scratch = Layer0Plans::new();
        group.bench_with_input(BenchmarkId::new("plan_build", n), &n, |b, _| {
            b.iter(|| {
                scratch.clear();
                scratch.push_sample(adj.view(), x.view());
            });
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
/// 30 pooled rows of width 97, conv2 over 15 × 16 with kernel 5) through
/// the output-vectorised strided GEMM the model runs, and conv2's
/// per-output dot loops it replaced (bit-identical outputs). CI runs
/// this group with `--test`.
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

/// Training-step kernels, one series each:
///
/// * `conv2_backward` — conv2's weight and input gradients of one sample
///   at k = 30 (11 steps of 32 outputs over 15 × 16 pooled rows, kernel
///   5), a random half of the gradients zeroed by the ReLU; the
///   iterations cycle through 64 such gradients so that, as in training,
///   the branch predictor cannot learn the zero pattern.
/// * `propagate_matmul`, `gc_dx`, `gc_dw` — a GC layer's forward GEMM,
///   input gradient `dZ·Wᵀ` and weight gradient over a 32-sample
///   block-diagonal batch of 30-node subgraphs, 32 channels.
/// * `gc_dw_1wide` — the last GC layer's weight gradient on the same
///   batch (`dZ` one channel wide: the branch-free masked-add kernel).
/// * `dense1_dx` — dense1's input gradient `dd1·W₁ᵀ` at fig7's head
///   (k = 53): 32 × 128 · (704 × 128)ᵀ, as the model computes it: the
///   strided GEMM `W₁·dd1ᵀ` between transposes of the two activations.
/// * `sortpool` — SortPooling of a 32-sample batch at fig7's shapes:
///   k = 53, 40–60 nodes per sample, layers of 32, 32, 32 and 1 channels
///   (97 concatenated).
/// * `dense1_dw` — dense1's weight gradient `flatᵀ·dd1` at fig7's head:
///   (32 × 704)ᵀ · (32 × 128), half of `flat` zeroed (conv2's ReLU).
/// * `conv1_dw` — conv1's weight gradient at fig7's shapes, as segmented
///   per-sample subtotals: 32 samples of `dconv1` (53 × 16, three entries
///   in four zero: the max-pool routing and conv1's ReLU) against the
///   pooled rows (53 × 97).
/// * `gc0_dw` — the first GC layer's weight gradient from the `S·X`
///   plan, per sample, over the 32-sample batch of 30-node subgraphs
///   (24 feature columns, 32 channels).
/// * `propagate_back` — `Sᵀ·G` over the same batch, 32 channels.
/// * `adam` — one Adam step of every weight of the paper's model at
///   k = 53 (~120 k weights).
///
/// CI runs this group with `--test`.
fn bench_train_step(c: &mut Criterion) {
    use muxlink_gnn::batch::{conv2_input_grads, conv2_weight_grads, sort_pool_into};
    use muxlink_gnn::sample::propagate_matmul_into;
    const K2: usize = 15;
    const C1: usize = 16;
    const C2: usize = 32;
    const KK: usize = 5;
    const K3: usize = K2 + 1 - KK;
    const NODES: usize = 30;
    const BATCH: usize = 32;
    const CH: usize = 32;
    let mut rng = muxlink_gnn::matrix::seeded_rng(9);
    let dconv2s: Vec<Matrix> = (0..64)
        .map(|_| {
            let mut d = Matrix::glorot(K3, C2, &mut rng);
            for v in d.data_mut() {
                *v = v.max(0.0);
            }
            d
        })
        .collect();
    let pool_out = Matrix::glorot(K2, C1, &mut rng);
    let w2 = Matrix::glorot(C2, KK * C1, &mut rng);
    let (mut gw, mut gb, mut dpool) = (Matrix::default(), Matrix::default(), Matrix::default());

    let n = NODES * BATCH;
    let block = subgraph_adj(NODES);
    let mut lists = Vec::with_capacity(n);
    for s in 0..BATCH {
        let base = (s * NODES) as u32;
        for i in 0..NODES {
            lists.push(block.neighbors(i).iter().map(|&j| base + j).collect());
        }
    }
    let adj = Csr::from_lists(&lists);
    let h = Matrix::glorot(n, CH, &mut rng);
    let w = Matrix::glorot(CH, CH, &mut rng);
    let wt = w.transpose();
    let dz = Matrix::glorot(n, CH, &mut rng);
    let dz1 = Matrix::glorot(n, 1, &mut rng);
    let (mut prop, mut out) = (Matrix::default(), Matrix::default());

    const FLAT: usize = 704;
    const DENSE: usize = 128;
    let dd1 = Matrix::glorot(BATCH, DENSE, &mut rng);
    let w1 = Matrix::glorot(FLAT, DENSE, &mut rng);
    let (mut dd1_t, mut dflat_t) = (Matrix::default(), Matrix::default());

    const K: usize = 53;
    let mut starts = vec![0u32];
    for s in 0..BATCH as u32 {
        starts.push(starts[s as usize] + 40 + s * 7 % 21);
    }
    let nodes = *starts.last().unwrap() as usize;
    let layers: Vec<Matrix> = [CH, CH, CH, 1]
        .iter()
        .map(|&c| Matrix::glorot(nodes, c, &mut rng))
        .collect();
    let (mut perm, mut pooled, mut pool_src) = (Vec::new(), Matrix::default(), Vec::new());

    let mut flat = Matrix::glorot(BATCH, FLAT, &mut rng);
    for v in flat.data_mut() {
        *v = v.max(0.0);
    }
    let mut dconv1 = Matrix::glorot(BATCH * K, C1, &mut rng);
    let route = Matrix::glorot(BATCH * K, C1, &mut rng);
    for (v, &r) in dconv1.data_mut().iter_mut().zip(route.data()) {
        if *v < 0.0 || r < 0.0 {
            *v = 0.0;
        }
    }
    let pooled_in = Matrix::glorot(BATCH * K, 3 * CH + 1, &mut rng);

    const F: usize = 24;
    let mut plans = Layer0Plans::new();
    for s in 0..BATCH {
        plans.push_sample(block.view(), onehot_features(NODES, F, s).view());
    }

    let mut model = Dgcnn::new(DgcnnConfig::paper(F, K));
    let adam_grads = Gradients::from_tensors(
        model
            .snapshot()
            .iter()
            .map(|w| Matrix::glorot(w.rows(), w.cols(), &mut rng))
            .collect(),
    );
    let mut adam = AdamState::new(&model);
    let opt = AdamConfig::default();

    let mut group = c.benchmark_group("train_step");
    group.sample_size(200);
    let mut next = 0;
    group.bench_function("conv2_backward", |b| {
        b.iter(|| {
            let dconv2 = &dconv2s[next % dconv2s.len()];
            next += 1;
            gw.resize(C2, KK * C1);
            gb.resize(1, C2);
            dpool.resize(K2, C1);
            conv2_weight_grads(dconv2.data(), pool_out.data(), C1, &mut gw, gb.data_mut());
            conv2_input_grads(dconv2.data(), &w2, C1, dpool.data_mut());
        });
    });
    group.bench_function("propagate_matmul", |b| {
        b.iter(|| propagate_matmul_into(&adj, &h, &w, &mut prop, &mut out));
    });
    group.bench_function("gc_dx", |b| {
        b.iter(|| {
            out.resize_for_overwrite(n, CH);
            strided_gemm_into(dz.data(), CH, &wt, None, out.data_mut());
        });
    });
    group.bench_function("gc_dw", |b| {
        b.iter(|| {
            for s in 0..BATCH {
                h.t_matmul_rows_into(&dz, s * NODES..(s + 1) * NODES, &mut gw);
            }
        });
    });
    group.bench_function("gc_dw_1wide", |b| {
        b.iter(|| {
            for s in 0..BATCH {
                h.t_matmul_rows_into(&dz1, s * NODES..(s + 1) * NODES, &mut gw);
            }
        });
    });
    group.bench_function("dense1_dx", |b| {
        b.iter(|| {
            dd1.transpose_into(&mut dd1_t);
            dflat_t.resize_for_overwrite(FLAT, BATCH);
            strided_gemm_into(w1.data(), DENSE, &dd1_t, None, dflat_t.data_mut());
            dflat_t.transpose_into(&mut out);
        });
    });
    group.bench_function("sortpool", |b| {
        b.iter(|| sort_pool_into(&layers, &starts, K, &mut perm, &mut pooled, &mut pool_src));
    });
    group.bench_function("dense1_dw", |b| {
        b.iter(|| flat.t_matmul_into(&dd1, &mut gw));
    });
    group.bench_function("conv1_dw", |b| {
        b.iter(|| {
            for s in 0..BATCH {
                dconv1.t_matmul_rows_into(&pooled_in, s * K..(s + 1) * K, &mut gw);
            }
        });
    });
    group.bench_function("gc0_dw", |b| {
        b.iter(|| {
            for s in 0..BATCH {
                plan_t_matmul_rows_into(plans.view(), &dz, s * NODES..(s + 1) * NODES, F, &mut gw);
            }
        });
    });
    group.bench_function("propagate_back", |b| {
        b.iter(|| propagate_back_into(&adj, &dz, &mut out));
    });
    let mut t = 0;
    group.bench_function("adam", |b| {
        b.iter(|| {
            t += 1;
            adam.step(&mut model, &adam_grads, &opt, t, 1.0 / BATCH as f32);
        });
    });
    group.finish();
}

/// The non-GNN half of a checkpoint resume, one series each:
///
/// * `matrix_encode`, `matrix_decode` — JSON text of a 640 × 128
///   `Matrix` (dense1's shape class: the bulk of a checkpoint is such
///   hex strings) and its parse back;
/// * `design_encode`, `design_decode` — the same for the fig7
///   `ExtractedDesign` (integer arrays, gate-type strings, float
///   scales), decode including its validation;
/// * `extract` — `muxlink_graph::extract` on the fig7 locked netlist
///   (what `Trained::verify_design` re-runs on every resume).
///
/// CI runs this group with `--test`.
fn bench_checkpoint_codec(c: &mut Criterion) {
    let mut rng = muxlink_gnn::matrix::seeded_rng(11);
    let matrix = Matrix::glorot(640, 128, &mut rng);
    let matrix_json = serde_json::to_string(&matrix).unwrap();
    let locked = muxlink_bench::resynth::fig7_workload();
    let names = locked.key_input_names();
    let design = extract(&locked.netlist, &names).unwrap();
    let design_json = serde_json::to_string(&design).unwrap();
    let mut group = c.benchmark_group("checkpoint_codec");
    group.bench_function("matrix_encode", |b| {
        b.iter(|| serde_json::to_string(&matrix).unwrap());
    });
    group.bench_function("matrix_decode", |b| {
        b.iter(|| serde_json::from_str::<Matrix>(&matrix_json).unwrap());
    });
    group.bench_function("design_encode", |b| {
        b.iter(|| serde_json::to_string(&design).unwrap());
    });
    group.bench_function("design_decode", |b| {
        b.iter(|| serde_json::from_str::<muxlink_graph::ExtractedDesign>(&design_json).unwrap());
    });
    group.bench_function("extract", |b| {
        b.iter(|| extract(&locked.netlist, &names).unwrap());
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
    bench_gnn,
    bench_propagate,
    bench_sparse_layer0,
    bench_subgraph_extract,
    bench_forward_sizes,
    bench_locking,
    bench_sim,
    bench_resynth,
    bench_dataset,
    bench_batched_layer,
    bench_layer0_plan,
    bench_activation,
    bench_conv_forward,
    bench_train_step,
    bench_checkpoint_codec,
    bench_quick_profile_constant
);
criterion_main!(kernels);
