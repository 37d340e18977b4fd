//! Output checks. Nothing here compares against a stored copy of earlier
//! output: every response is checked against a forward pass computed apart
//! from the server, against a plain f64 forward written here, or against a
//! property the method must have.

use std::collections::HashMap;

use capsnet::{CapsNet, CapsNetSpec, ExactMath};
use pim_store::MappedModel;
use pim_tensor::Tensor;

use crate::drive::is_cache_hit;
use pim_serve::Response;

/// Absolute tolerance between the served squared class norms and the f64
/// plain-loop forward. Squared norms lie in `[0, 1)`; the f32 path differs
/// from f64 by accumulation rounding only, observed below 1e-6.
pub const F64_TOLERANCE: f64 = 1e-4;

/// A reference output: squared class norms and the predicted class.
#[derive(Clone)]
struct Reference {
    norms: Vec<f32>,
    predictions: Vec<usize>,
}

/// A response kept for checking once the timed phases are over.
struct Record {
    id: u64,
    norms: Vec<f32>,
    predictions: Vec<usize>,
    hit: bool,
}

/// Tallies of every check the run made.
#[derive(Debug, Default, Clone)]
pub struct CheckLedger {
    /// Responses compared bitwise against a batch-1 forward.
    pub compared: u64,
    /// Responses that differed from it.
    pub mismatched: u64,
    /// Of the compared responses, those the cache answered.
    pub hits_compared: u64,
    /// Class-capsule norms at or above 1 (or not finite).
    pub squash_violations: u64,
    /// Samples checked against the f64 plain-loop forward.
    pub f64_checked: u64,
    /// Of those, samples outside [`F64_TOLERANCE`] or with another argmax.
    pub f64_failed: u64,
    /// Largest |served − f64| seen.
    pub f64_max_abs_err: f64,
}

impl CheckLedger {
    /// `true` when every check passed.
    pub fn passed(&self) -> bool {
        self.mismatched == 0 && self.squash_violations == 0 && self.f64_failed == 0
    }
}

/// Checks responses bitwise against a batch-1 `CapsNet::forward` of the same
/// input, computed apart from the server. References for a bounded input
/// pool are computed before the timed phases and responses are checked as
/// they arrive; otherwise responses are kept and checked afterwards.
#[derive(Default)]
pub struct Verifier {
    refs: HashMap<u64, Reference>,
    deferred: Vec<Record>,
    /// The tallies so far.
    pub ledger: CheckLedger,
}

/// The reference for input `id`: a batch-1 forward on its own.
fn reference(net: &CapsNet, image: &Images<'_>, id: u64) -> Reference {
    let out = net
        .forward(&image(id), &ExactMath)
        .expect("reference forward of a well-formed input");
    Reference {
        norms: out.class_norms_sq.as_slice().to_vec(),
        predictions: out.predictions(),
    }
}

/// Maps a content id to its input.
pub type Images<'a> = dyn Fn(u64) -> Tensor + Sync + 'a;

impl Verifier {
    /// Computes the missing references among `ids`, sharing the
    /// independent batch-1 forwards over the host's cores.
    fn fill(&mut self, net: &CapsNet, image: &Images<'_>, mut ids: Vec<u64>) {
        ids.retain(|id| !self.refs.contains_key(id));
        ids.sort_unstable();
        ids.dedup();
        if ids.is_empty() {
            return;
        }
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let chunk = ids.len().div_ceil(threads);
        let computed: Vec<Vec<(u64, Reference)>> = std::thread::scope(|s| {
            let workers: Vec<_> = ids
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        part.iter()
                            .map(|&id| (id, reference(net, image, id)))
                            .collect()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("reference thread panicked"))
                .collect()
        });
        self.refs.extend(computed.into_iter().flatten());
    }

    /// Computes the references for ids `0..n` now (before timing starts),
    /// so responses for them are checked on arrival and not stored.
    pub fn precompute(&mut self, net: &CapsNet, image: &Images<'_>, n: u64) {
        self.fill(net, image, (0..n).collect());
    }

    /// Checks one response (now if its reference is known, else later).
    pub fn observe(&mut self, id: u64, r: &Response) {
        for &n in &r.class_norms_sq {
            // Squash maps every capsule strictly inside the unit ball.
            if !(n.is_finite() && (0.0..1.0).contains(&n)) {
                self.ledger.squash_violations += 1;
            }
        }
        let hit = is_cache_hit(r);
        if let Some(reference) = self.refs.get(&id) {
            let same = bitwise_equal(&reference.norms, &r.class_norms_sq)
                && reference.predictions == r.predictions;
            self.tally(same, hit);
        } else {
            self.deferred.push(Record {
                id,
                norms: r.class_norms_sq.clone(),
                predictions: r.predictions.clone(),
                hit,
            });
        }
    }

    fn tally(&mut self, same: bool, hit: bool) {
        self.ledger.compared += 1;
        self.ledger.hits_compared += u64::from(hit);
        if !same {
            self.ledger.mismatched += 1;
        }
    }

    /// Checks every kept response (outside the timed phases).
    pub fn finish(&mut self, net: &CapsNet, image: &Images<'_>) {
        let deferred = std::mem::take(&mut self.deferred);
        self.fill(net, image, deferred.iter().map(|r| r.id).collect());
        for rec in deferred {
            let reference = &self.refs[&rec.id];
            let same = bitwise_equal(&reference.norms, &rec.norms)
                && reference.predictions == rec.predictions;
            self.tally(same, rec.hit);
        }
    }

    /// Self-test: a copy of a verified reference with one flipped bit must
    /// fail the bitwise comparison. Returns `false` if the check is blind.
    pub fn bit_flip_is_caught(&self) -> bool {
        let Some(reference) = self.refs.values().next() else {
            return false;
        };
        let mut doctored = reference.norms.clone();
        doctored[0] = f32::from_bits(doctored[0].to_bits() ^ 1);
        !bitwise_equal(&reference.norms, &doctored)
    }
}

fn bitwise_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The ticket reconciliation: every accepted ticket resolved exactly once,
/// and the server's completions (`requests + cache_hits`) equal what the
/// generator harvested.
pub fn reconciles(accepted: u64, harvested: u64, server_completions: u64) -> bool {
    accepted == harvested && harvested == server_completions
}

/// The network's weights read straight off the artifact, for the plain
/// f64 forward.
pub struct PlainWeights {
    spec: CapsNetSpec,
    conv1_w: Vec<f32>,
    conv1_b: Option<Vec<f32>>,
    primary_w: Vec<f32>,
    primary_b: Option<Vec<f32>>,
    caps_w: Vec<f32>,
}

impl PlainWeights {
    /// Reads the encoder weights from the artifact.
    pub fn load(mapped: &MappedModel) -> Self {
        let get = |name: &str| mapped.tensor(name).ok().map(|t| t.as_slice().to_vec());
        PlainWeights {
            spec: mapped.spec().clone(),
            conv1_w: get("conv1.weight").expect("artifact holds conv1.weight"),
            conv1_b: get("conv1.bias"),
            primary_w: get("primary.weight").expect("artifact holds primary.weight"),
            primary_b: get("primary.bias"),
            caps_w: get("caps.weight").expect("artifact holds caps.weight"),
        }
    }

    /// Squared class norms of one `[C, H, W]` image by plain loops with f64
    /// accumulation: valid convolution + ReLU, PrimaryCaps convolution
    /// regrouped into capsules and squashed, prediction vectors, and
    /// per-sample dynamic routing.
    pub fn class_norms_sq(&self, image: &[f32]) -> Vec<f64> {
        let s = &self.spec;
        let (c1, h1, w1) = conv_f64(
            &image.iter().map(|&x| f64::from(x)).collect::<Vec<_>>(),
            (s.input_channels, s.input_hw.0, s.input_hw.1),
            &self.conv1_w,
            self.conv1_b.as_deref(),
            s.conv1_channels,
            s.conv1_kernel,
            s.conv1_stride,
        );
        let c1: Vec<f64> = c1.into_iter().map(|x| x.max(0.0)).collect();
        let pc_out = s.primary_channels * s.cl_dim;
        let (p, h2, w2) = conv_f64(
            &c1,
            (s.conv1_channels, h1, w1),
            &self.primary_w,
            self.primary_b.as_deref(),
            pc_out,
            s.primary_kernel,
            s.primary_stride,
        );
        // Capsule index runs over (channel group, y, x); dimension d is
        // channel g·C_L + d.
        let (cl, nh, ch) = (s.cl_dim, s.h_caps, s.ch_dim);
        let l = s.primary_channels * h2 * w2;
        let mut u = vec![0.0f64; l * cl];
        for g in 0..s.primary_channels {
            for y in 0..h2 {
                for x in 0..w2 {
                    let cap = (g * h2 + y) * w2 + x;
                    for d in 0..cl {
                        u[cap * cl + d] = p[((g * cl + d) * h2 + y) * w2 + x];
                    }
                }
            }
        }
        for cap in u.chunks_mut(cl) {
            squash_f64(cap);
        }
        // û_{j|i} = u_i · W_i, W stored [L, C_L, H·C_H].
        let hc = nh * ch;
        let mut u_hat = vec![0.0f64; l * hc];
        for i in 0..l {
            for d in 0..cl {
                let ud = u[i * cl + d];
                let w = &self.caps_w[(i * cl + d) * hc..(i * cl + d + 1) * hc];
                for (o, &wv) in u_hat[i * hc..(i + 1) * hc].iter_mut().zip(w) {
                    *o += ud * f64::from(wv);
                }
            }
        }
        // Dynamic routing (Algorithm 1), per sample.
        let mut b = vec![0.0f64; l * nh];
        let mut v = vec![0.0f64; hc];
        for iter in 0..s.routing_iterations {
            let mut sj = vec![0.0f64; hc];
            for i in 0..l {
                let row = &b[i * nh..(i + 1) * nh];
                let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let exps: Vec<f64> = row.iter().map(|&x| (x - max).exp()).collect();
                let total: f64 = exps.iter().sum();
                for j in 0..nh {
                    let c = exps[j] / total;
                    for k in 0..ch {
                        sj[j * ch + k] += c * u_hat[i * hc + j * ch + k];
                    }
                }
            }
            for (j, cap) in sj.chunks(ch).enumerate() {
                let mut vj = cap.to_vec();
                squash_f64(&mut vj);
                v[j * ch..(j + 1) * ch].copy_from_slice(&vj);
            }
            if iter + 1 < s.routing_iterations {
                for i in 0..l {
                    for j in 0..nh {
                        let agree: f64 = (0..ch)
                            .map(|k| v[j * ch + k] * u_hat[i * hc + j * ch + k])
                            .sum();
                        b[i * nh + j] += agree;
                    }
                }
            }
        }
        v.chunks(ch)
            .map(|cap| cap.iter().map(|x| x * x).sum())
            .collect()
    }

    /// Checks one served sample against the f64 forward: every squared
    /// norm within [`F64_TOLERANCE`], and the same argmax unless the f64
    /// top two are closer than the tolerance (then either is right).
    pub fn check(&self, image: &[f32], served: &[f32], ledger: &mut CheckLedger) {
        let exact = self.class_norms_sq(image);
        let mut ok = exact.len() == served.len();
        for (&e, &s) in exact.iter().zip(served) {
            let err = (e - f64::from(s)).abs();
            ledger.f64_max_abs_err = ledger.f64_max_abs_err.max(err);
            ok &= err <= F64_TOLERANCE;
        }
        let top = argmax(&exact);
        let served_top = argmax(&served.iter().map(|&x| f64::from(x)).collect::<Vec<_>>());
        if top != served_top {
            ok &= (exact[top] - exact[served_top]).abs() < F64_TOLERANCE;
        }
        ledger.f64_checked += 1;
        ledger.f64_failed += u64::from(!ok);
    }
}

fn argmax(x: &[f64]) -> usize {
    x.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

fn squash_f64(s: &mut [f64]) {
    let n2: f64 = s.iter().map(|x| x * x).sum();
    if n2 <= 0.0 {
        s.fill(0.0);
        return;
    }
    let k = n2.sqrt() / (1.0 + n2);
    for x in s {
        *x *= k;
    }
}

/// Valid (unpadded) convolution of a `[C, H, W]` input, f64 accumulation.
fn conv_f64(
    input: &[f64],
    (c_in, h, w): (usize, usize, usize),
    weight: &[f32],
    bias: Option<&[f32]>,
    c_out: usize,
    k: usize,
    stride: usize,
) -> (Vec<f64>, usize, usize) {
    let oh = (h - k) / stride + 1;
    let ow = (w - k) / stride + 1;
    let mut out = vec![0.0f64; c_out * oh * ow];
    for o in 0..c_out {
        let b = bias.map_or(0.0, |b| f64::from(b[o]));
        for y in 0..oh {
            for x in 0..ow {
                let mut acc = b;
                for c in 0..c_in {
                    for ky in 0..k {
                        let irow = &input[(c * h + y * stride + ky) * w + x * stride..][..k];
                        let wrow = &weight[((o * c_in + c) * k + ky) * k..][..k];
                        for (&iv, &wv) in irow.iter().zip(wrow) {
                            acc += iv * f64::from(wv);
                        }
                    }
                }
                out[(o * oh + y) * ow + x] = acc;
            }
        }
    }
    (out, oh, ow)
}
