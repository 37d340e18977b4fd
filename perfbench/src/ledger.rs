//! The per-stage ledger of the forward pass: the encoder's layers rebuilt
//! from the artifact's tensors, each public stage function timed on its
//! own, and the composition checked bitwise against `CapsNet::forward_with`.

use std::time::{Duration, Instant};

use capsnet::layers::{Activation, CapsLayer, Conv2dLayer, PrimaryCapsLayer};
use capsnet::{dynamic_routing_with, CapsNet, ExactMath, ForwardArena, RoutingScratch};
use pim_store::MappedModel;
use pim_tensor::{Conv2dScratch, Tensor};

use crate::drive::median;

/// Median per-batch stage times and what they imply.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Batch size the stages ran at.
    pub batch: usize,
    /// `Conv2dLayer::forward_into` (conv1 + ReLU), ms.
    pub conv1_ms: f64,
    /// `PrimaryCapsLayer::forward_into` (conv, regroup, squash), ms.
    pub primary_ms: f64,
    /// `CapsLayer::prediction_vectors_into` (Eq 1), ms.
    pub uhat_ms: f64,
    /// `routing::dynamic_routing_with` (Eq 2–5), ms.
    pub routing_ms: f64,
    /// `CapsNet::forward_with` over the same batch, ms.
    pub forward_ms: f64,
    /// Conv1 arithmetic rate, GFLOP/s.
    pub conv1_gflops: f64,
    /// PrimaryCaps convolution arithmetic rate, GFLOP/s.
    pub primary_gflops: f64,
    /// Prediction-vector traffic (weights + input + output), GB/s.
    pub uhat_gbps: f64,
    /// `true` when the composed stages reproduced `forward_with` bitwise.
    pub bitwise: bool,
}

impl Ledger {
    /// Sum of the four stage times over `forward_ms`.
    pub fn stage_sum_ratio(&self) -> f64 {
        (self.conv1_ms + self.primary_ms + self.uhat_ms + self.routing_ms) / self.forward_ms
    }
}

/// The encoder rebuilt from the artifact's tensors through the layers'
/// public constructors.
struct Stages {
    conv1: Conv2dLayer,
    primary: PrimaryCapsLayer,
    caps: CapsLayer,
    iterations: usize,
    batch_shared: bool,
}

impl Stages {
    fn rebuild(mapped: &MappedModel) -> Self {
        let spec = mapped.spec();
        let tensor = |name: &str| mapped.tensor(name).expect("artifact tensor");
        let bias = |name: &str| mapped.tensor(name).ok();
        let conv1 = Conv2dLayer::from_weights(
            tensor("conv1.weight"),
            bias("conv1.bias"),
            spec.conv1_stride,
            Activation::Relu,
        )
        .expect("conv1 weights");
        let primary_conv = Conv2dLayer::from_weights(
            tensor("primary.weight"),
            bias("primary.bias"),
            spec.primary_stride,
            Activation::Linear,
        )
        .expect("primary weights");
        let primary = PrimaryCapsLayer::from_conv(primary_conv, spec.primary_channels, spec.cl_dim)
            .expect("primary geometry");
        let caps = CapsLayer::from_weight_view(
            mapped.weight_view("caps.weight").expect("caps weight"),
            spec.l_caps().expect("valid spec"),
            spec.cl_dim,
            spec.h_caps,
            spec.ch_dim,
            spec.routing,
            spec.routing_iterations,
        )
        .expect("caps geometry")
        .with_batch_shared(spec.batch_shared_routing);
        Stages {
            conv1,
            primary,
            caps,
            iterations: spec.routing_iterations,
            batch_shared: spec.batch_shared_routing,
        }
    }
}

/// Times each stage and the whole forward at `images`' batch size. Runs
/// at least `min_reps` timed repetitions (after one untimed warm-up) and
/// keeps going until `budget` has passed, up to 200; reports medians.
pub fn measure(
    mapped: &MappedModel,
    net: &CapsNet,
    images: &Tensor,
    min_reps: usize,
    budget: Duration,
) -> Ledger {
    let spec = mapped.spec().clone();
    let stages = Stages::rebuild(mapped);
    let batch = images.shape().dims()[0];
    let mut c1 = Tensor::zeros(&[0]);
    let mut s1 = Conv2dScratch::default();
    let mut u = Tensor::zeros(&[0]);
    let mut pconv = Tensor::zeros(&[0]);
    let mut s2 = Conv2dScratch::default();
    let mut u_hat = Tensor::zeros(&[0]);
    let mut gather = Vec::new();
    let mut scratch = RoutingScratch::new();
    let mut arena = ForwardArena::new();
    let mut times: [Vec<f64>; 5] = Default::default();
    let mut bitwise = true;
    let started = Instant::now();
    let mut rep = 0usize;
    while rep <= min_reps || (started.elapsed() < budget && rep <= 200) {
        let t0 = Instant::now();
        stages
            .conv1
            .forward_into(images, &mut c1, &mut s1)
            .expect("conv1");
        let t1 = Instant::now();
        stages
            .primary
            .forward_into(&c1, &ExactMath, &mut u, &mut pconv, &mut s2)
            .expect("primary");
        let t2 = Instant::now();
        stages
            .caps
            .prediction_vectors_into(&u, &ExactMath, &mut u_hat, &mut gather)
            .expect("prediction vectors");
        let t3 = Instant::now();
        let routed = dynamic_routing_with(
            &u_hat,
            stages.iterations,
            stages.batch_shared,
            &ExactMath,
            &mut scratch,
        )
        .expect("routing");
        let t4 = Instant::now();
        let view = net
            .forward_with(images, &ExactMath, &mut arena)
            .expect("forward_with");
        let t5 = Instant::now();

        let composed = class_norms_sq(routed.v.as_slice(), spec.ch_dim);
        bitwise &= same_bits(&composed, view.class_norms_sq())
            && same_bits(routed.v.as_slice(), view.class_capsules());
        if rep > 0 {
            let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
            for (slot, value) in
                times
                    .iter_mut()
                    .zip([ms(t0, t1), ms(t1, t2), ms(t2, t3), ms(t3, t4), ms(t4, t5)])
            {
                slot.push(value);
            }
        }
        rep += 1;
    }
    let [conv1_ms, primary_ms, uhat_ms, routing_ms, forward_ms] = times.map(|mut t| median(&mut t));

    let b = batch as f64;
    let (h1, w1) = conv_out(spec.input_hw, spec.conv1_kernel, spec.conv1_stride);
    let (h2, w2) = conv_out((h1, w1), spec.primary_kernel, spec.primary_stride);
    let conv1_flops = 2.0
        * b
        * (h1 * w1 * spec.conv1_channels * spec.input_channels * spec.conv1_kernel.pow(2)) as f64;
    let primary_flops = 2.0
        * b
        * (h2
            * w2
            * spec.primary_channels
            * spec.cl_dim
            * spec.conv1_channels
            * spec.primary_kernel.pow(2)) as f64;
    let l = spec.l_caps().expect("valid spec");
    let hc = spec.h_caps * spec.ch_dim;
    let uhat_bytes = 4.0 * ((l * spec.cl_dim * hc) as f64 + b * (l * hc + l * spec.cl_dim) as f64);
    Ledger {
        batch,
        conv1_ms,
        primary_ms,
        uhat_ms,
        routing_ms,
        forward_ms,
        conv1_gflops: conv1_flops / (conv1_ms * 1e6),
        primary_gflops: primary_flops / (primary_ms * 1e6),
        uhat_gbps: uhat_bytes / (uhat_ms * 1e6),
        bitwise,
    }
}

fn conv_out((h, w): (usize, usize), k: usize, stride: usize) -> (usize, usize) {
    ((h - k) / stride + 1, (w - k) / stride + 1)
}

/// Squared capsule norms, summed in the order `CapsNet` sums them.
fn class_norms_sq(v: &[f32], ch: usize) -> Vec<f32> {
    v.chunks(ch)
        .map(|cap| cap.iter().map(|&x| x * x).sum())
        .collect()
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
