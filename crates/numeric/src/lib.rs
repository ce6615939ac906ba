//! Numeric substrate for the jury-selection workspace.
//!
//! This crate implements, from scratch, the numerical machinery the paper
//! "Whom to Ask? Jury Selection for Decision Making Tasks on Micro-blog
//! Services" (VLDB 2012) relies on:
//!
//! * [`complex`] — minimal `f64` complex arithmetic used by the FFT.
//! * [`fft`] — iterative radix-2 Cooley–Tukey FFT and inverse FFT.
//! * [`conv`] — polynomial/probability-vector convolution, both direct
//!   `O(n·m)` and FFT-based `O(n log n)`, with an adaptive dispatcher.
//! * [`poibin`] — the Poisson-Binomial distribution of the *carelessness*
//!   count `C` (number of jurors voting incorrectly), with naive,
//!   dynamic-programming and divide-&-conquer (CBA) constructors.
//! * [`bounds`] — tail lower/upper bounds: the Paley–Zygmund bound of the
//!   paper's Lemma 2, a Berry–Esseen lower bound for the `μ ≈ t` band,
//!   and Cantelli and Chernoff upper bounds.
//! * [`approx`] — `O(n)` normal and refined-normal tail approximations
//!   (screening estimates; an accuracy/speed ablation vs the exact
//!   engines).
//! * [`kahan`] — compensated summation keeping long probability sums exact
//!   to within a few ulps.
//! * [`float`] — approximate-comparison helpers shared by tests.
//!
//! Everything is deterministic and allocation-conscious: the hot paths
//! (`PoiBin` construction, convolution) reuse buffers where practical and
//! avoid heap traffic in inner loops.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod approx;
pub mod bounds;
pub mod complex;
pub mod conv;
pub mod fft;
pub mod float;
pub mod hash;
pub mod kahan;
pub mod poibin;

pub use approx::{normal_tail, refined_normal_tail};
pub use bounds::{cantelli_upper_bound, chernoff_upper_bound, paley_zygmund_lower_bound};
pub use complex::Complex64;
pub use conv::{convolve, convolve_direct, convolve_fft, convolve_into, ConvScratch, ConvStrategy};
pub use fft::{fft_forward, fft_inverse, Fft, FftPlanCache};
pub use kahan::KahanSum;
pub use poibin::{tail_probability_dp_with, PoiBin, TailScratch};
