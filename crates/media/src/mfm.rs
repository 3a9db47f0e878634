//! Magnetic Force Microscopy read channel — §6 / Figure 6 of the paper.
//!
//! The µSPAM reads with the MFM principle: a magnetic tip on a cantilever is
//! attracted or repelled by the stray field of each dot, and the cantilever
//! deflection is sensed capacitively. An out-of-plane dot produces a clear
//! positive or negative peak (Figure 1, top); a heated dot's in-plane
//! moment produces almost no out-of-plane stray field, so its peak
//! disappears (Figure 1, bottom).
//!
//! The channel model: `signal = polarity·A + leakage + noise`, where
//! heated dots have zero polarity and only a small random in-plane leakage.
//! The detector thresholds the signal and reports [`Detection::Weak`] when
//! the magnitude is ambiguous — which is how heated dots inside magnetic
//! data areas surface as *erasures* for the Reed–Solomon decoder ("an
//! electrically written bit in the data … appears as a read error", §5.1).
//!
//! # The noise envelope
//!
//! The noise is one Box–Muller sample, `σ·sqrt(−2 ln u1)·cos(2π u2)`, with
//! `u1` clamped at `1e-12`. Because `|cos| ≤ 1`, the first uniform alone
//! bounds it: `|noise| ≤ σ·sqrt(−2 ln u1)`. A read whose nominal outcome
//! sits a margin `m` from the decision boundary therefore keeps that
//! outcome whenever `u1 > exp(−(m/σ)²/2)`. The margins are
//! `amplitude − threshold` for a magnetic dot and
//! `threshold − heated_leakage` for a heated one, whose leakage never
//! exceeds `heated_leakage`. In-plane sensing uses
//! `0.85·amplitude − threshold` for heated dots and
//! `threshold − heated_leakage` for intact ones. Each channel precomputes
//! these cutoffs, shaved by a guard far wider than the rounding of `ln`,
//! `sqrt`, `cos` and the final sum. Above its cutoff a read returns the
//! nominal outcome without computing the noise. A margin `m ≤ 0` (leakage
//! at or above the threshold, say) disables the skip.
//!
//! On the default 26 dB channel the out-of-plane cutoffs are ≈1.9e-22
//! (magnetic) and ≈4.8e-16 (heated). Both lie below the `1e-12` clamp: the
//! noise never exceeds `0.05·sqrt(−2 ln 1e-12) ≈ 0.37`, short of both
//! margins (0.5 and 0.42). So no default read can cross its threshold, and
//! every one takes the fast path.
//!
//! The fast path still draws every value [`ReadChannel::sense`] draws, in
//! the same order, through one shared helper: a heated dot read out of
//! plane first draws its leakage sign and magnitude, and then every read
//! on a noisy channel draws `u1` and `u2`. The channel RNG stream is
//! unchanged, and with it everything seeded from it downstream: `erb` coin
//! flips, thermal-disturb draws, fault-free twins and evidence reports.
//! Skip-ahead sampling, which would draw only for the reads whose noise
//! can cross, would move that stream and is deferred.
//!
//! # Examples
//!
//! ```
//! use sero_media::geometry::Geometry;
//! use sero_media::medium::Medium;
//! use sero_media::mfm::{Detection, ReadChannel};
//! use rand::SeedableRng;
//!
//! let mut medium = Medium::new(Geometry::new(4, 4, 100.0));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(9);
//! medium.write_mag(0, true);
//! medium.heat(1);
//! let channel = ReadChannel::default();
//! assert_eq!(channel.detect(&medium, 0, &mut rng), Detection::One);
//! assert_eq!(channel.detect(&medium, 1, &mut rng), Detection::Weak);
//! ```

use crate::dot::DotState;
use crate::medium::{DotShape, Medium};
use rand::Rng;

/// Outcome of thresholding one dot's read-back signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Detection {
    /// Clear negative peak — logical 0.
    Zero,
    /// Clear positive peak — logical 1.
    One,
    /// No reliable peak: a heated dot or a noise casualty. Surfaces as an
    /// erasure to the sector ECC.
    Weak,
}

impl Detection {
    /// The detected logical bit, if unambiguous.
    pub fn bit(self) -> Option<bool> {
        match self {
            Detection::Zero => Some(false),
            Detection::One => Some(true),
            Detection::Weak => None,
        }
    }
}

/// Floor of the Box–Muller radius draw `u1`; bounds the noise at
/// `σ·sqrt(−2 ln 1e-12) ≈ 7.4σ`.
const U1_FLOOR: f64 = 1e-12;

/// In-plane signal of a destroyed elliptic dot, as a fraction of the
/// out-of-plane peak amplitude.
const IN_PLANE_HEATED_FRACTION: f64 = 0.85;

/// Slack the noise envelope gives away to floating-point rounding: the
/// margin shrinks by this fraction of the amplitude, and the cutoff
/// exponent by this fraction plus this absolute amount. It dwarfs the few
/// ulps that `ln`, `exp`, `sqrt`, `cos`, the products and the final sum
/// can lose.
const ENVELOPE_GUARD: f64 = 1e-9;

/// Which component of a dot's moment a read senses.
#[derive(Debug, Clone, Copy)]
enum Axis {
    /// The MFM out-of-plane peak.
    OutOfPlane,
    /// The in-plane signal of an elliptic dot.
    InPlane,
}

/// One read's random draws, in the order the channel RNG yields them.
#[derive(Debug, Clone, Copy)]
struct Draws {
    /// The noise-free signal.
    base: f64,
    /// Box–Muller radius uniform, clamped at [`U1_FLOOR`]; `1.0` on a
    /// noiseless channel, which draws nothing.
    u1: f64,
    /// Box–Muller angle uniform.
    u2: f64,
}

impl Draws {
    /// The full signal: `base` plus the Box–Muller Gaussian sample with
    /// standard deviation `sigma`.
    fn signal(&self, sigma: f64) -> f64 {
        let noise = if sigma == 0.0 {
            0.0
        } else {
            sigma * (-2.0 * self.u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * self.u2).cos()
        };
        self.base + noise
    }
}

/// Per-outcome `u1` cutoffs: above its cutoff, a read's noise cannot move
/// it off its nominal outcome (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Envelope {
    /// Up/down dots, margin `amplitude − threshold`.
    magnetic: f64,
    /// Heated dots read out of plane and intact dots read in plane, margin
    /// `threshold − heated_leakage`.
    leakage: f64,
    /// Heated elliptic dots read in plane, margin
    /// `0.85·amplitude − threshold`.
    in_plane_heated: f64,
}

impl Envelope {
    fn new(amplitude: f64, noise_rms: f64, heated_leakage: f64, threshold: f64) -> Envelope {
        let cutoff = |margin: f64| {
            let margin = margin - ENVELOPE_GUARD * amplitude;
            if margin.is_nan() || margin <= 0.0 {
                // No margin to spend: every read computes its signal.
                return f64::INFINITY;
            }
            let exponent =
                0.5 * (margin / noise_rms).powi(2) * (1.0 - ENVELOPE_GUARD) - ENVELOPE_GUARD;
            (-exponent).exp()
        };
        Envelope {
            magnetic: cutoff(amplitude - threshold),
            leakage: cutoff(threshold - heated_leakage),
            in_plane_heated: cutoff(IN_PLANE_HEATED_FRACTION * amplitude - threshold),
        }
    }
}

/// An MFM cantilever read channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadChannel {
    /// Nominal peak amplitude of an out-of-plane dot (arbitrary units).
    amplitude: f64,
    /// RMS additive Gaussian noise.
    noise_rms: f64,
    /// Residual out-of-plane leakage of a destroyed (in-plane) dot.
    heated_leakage: f64,
    /// Decision threshold: |signal| below this reports [`Detection::Weak`].
    threshold: f64,
    /// Noise-envelope cutoffs, derived from the four parameters above.
    envelope: Envelope,
}

impl Default for ReadChannel {
    /// A channel with ~26 dB peak SNR, comfortably separating the three
    /// signal classes.
    fn default() -> ReadChannel {
        ReadChannel::new(1.0, 0.05, 0.08, 0.5)
    }
}

impl ReadChannel {
    /// A custom channel.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold < amplitude` and the noise terms are
    /// non-negative.
    pub fn new(amplitude: f64, noise_rms: f64, heated_leakage: f64, threshold: f64) -> ReadChannel {
        assert!(amplitude > 0.0 && threshold > 0.0 && threshold < amplitude);
        assert!(noise_rms >= 0.0 && heated_leakage >= 0.0);
        ReadChannel {
            amplitude,
            noise_rms,
            heated_leakage,
            threshold,
            envelope: Envelope::new(amplitude, noise_rms, heated_leakage, threshold),
        }
    }

    /// Peak signal-to-noise ratio in dB.
    pub fn snr_db(&self) -> f64 {
        20.0 * (self.amplitude / self.noise_rms.max(1e-12)).log10()
    }

    /// Takes one read's draws from `rng`: a heated dot read out of plane
    /// first draws its leakage sign and magnitude, then every read on a
    /// noisy channel draws `u1` and `u2`.
    fn draw<R: Rng + ?Sized>(&self, axis: Axis, state: DotState, rng: &mut R) -> Draws {
        let base = match (axis, state) {
            (Axis::OutOfPlane, DotState::Up) => self.amplitude,
            (Axis::OutOfPlane, DotState::Down) => -self.amplitude,
            (Axis::OutOfPlane, DotState::Heated) => {
                // In-plane moment: tiny residual out-of-plane component with
                // random sign, far below threshold.
                let sign = if rng.random::<bool>() { 1.0 } else { -1.0 };
                sign * self.heated_leakage * rng.random::<f64>()
            }
            (Axis::InPlane, DotState::Heated) => IN_PLANE_HEATED_FRACTION * self.amplitude,
            // Intact dots leak a little in-plane component through tilt.
            (Axis::InPlane, _) => self.heated_leakage,
        };
        if self.noise_rms == 0.0 {
            return Draws {
                base,
                u1: 1.0,
                u2: 0.0,
            };
        }
        let u1 = rng.random::<f64>().max(U1_FLOOR);
        let u2 = rng.random::<f64>();
        Draws { base, u1, u2 }
    }

    /// The raw cantilever signal for dot `index`.
    pub fn sense<R: Rng + ?Sized>(&self, medium: &Medium, index: u64, rng: &mut R) -> f64 {
        self.draw(Axis::OutOfPlane, medium.state(index), rng)
            .signal(self.noise_rms)
    }

    /// Senses and thresholds dot `index`: the same draws and outcome as
    /// thresholding [`ReadChannel::sense`], skipping the noise arithmetic
    /// whenever the noise envelope proves the outcome.
    pub fn detect<R: Rng + ?Sized>(&self, medium: &Medium, index: u64, rng: &mut R) -> Detection {
        self.detect_state(medium.state(index), rng)
    }

    /// [`ReadChannel::detect`] of a dot whose state the caller already
    /// read, for example a whole sector through [`Medium::read_states`].
    /// The draws and outcome are those of `detect` on that dot.
    pub fn detect_state<R: Rng + ?Sized>(&self, state: DotState, rng: &mut R) -> Detection {
        let draws = self.draw(Axis::OutOfPlane, state, rng);
        let (cutoff, nominal) = match state {
            DotState::Up => (self.envelope.magnetic, Detection::One),
            DotState::Down => (self.envelope.magnetic, Detection::Zero),
            DotState::Heated => (self.envelope.leakage, Detection::Weak),
        };
        if draws.u1 > cutoff {
            return nominal;
        }
        let signal = draws.signal(self.noise_rms);
        if signal >= self.threshold {
            Detection::One
        } else if signal <= -self.threshold {
            Detection::Zero
        } else {
            Detection::Weak
        }
    }

    /// Reads a run of dots, returning detections in order: the states
    /// come from one [`Medium::read_states`], the draws are those of a
    /// [`ReadChannel::detect`] per dot.
    pub fn detect_run<R: Rng + ?Sized>(
        &self,
        medium: &Medium,
        range: core::ops::Range<u64>,
        rng: &mut R,
    ) -> Vec<Detection> {
        let mut states = vec![DotState::Down; range.end.saturating_sub(range.start) as usize];
        medium.read_states(range.start, &mut states);
        states
            .into_iter()
            .map(|state| self.detect_state(state, rng))
            .collect()
    }

    /// Direct in-plane heat sensing — available only on elliptic-dot media
    /// (§3: "read the in-plane magnetic signal directly, however, this
    /// requires carefully constructed elliptic dots").
    ///
    /// A destroyed elliptic dot carries its full moment along the track
    /// axis, producing a strong in-plane signal; an intact perpendicular
    /// dot produces almost none. One read, no write-back — five times
    /// cheaper than the `erb` protocol. Returns `None` on circular media,
    /// where the in-plane direction of a destroyed dot is unknowable.
    pub fn sense_heat_in_plane<R: Rng + ?Sized>(
        &self,
        medium: &Medium,
        index: u64,
        rng: &mut R,
    ) -> Option<bool> {
        if medium.shape() != DotShape::Elliptic {
            return None;
        }
        let state = medium.state(index);
        let heated = state == DotState::Heated;
        let draws = self.draw(Axis::InPlane, state, rng);
        let cutoff = if heated {
            self.envelope.in_plane_heated
        } else {
            self.envelope.leakage
        };
        if draws.u1 > cutoff {
            return Some(heated);
        }
        Some(draws.signal(self.noise_rms) >= self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn medium() -> Medium {
        Medium::new(Geometry::new(8, 8, 100.0))
    }

    #[test]
    fn clean_bits_detected_reliably() {
        let mut m = medium();
        let mut rng = StdRng::seed_from_u64(11);
        let ch = ReadChannel::default();
        for i in 0..m.dot_count() {
            m.write_mag(i, i % 2 == 0);
        }
        let mut errors = 0;
        for _ in 0..20 {
            for i in 0..m.dot_count() {
                match ch.detect(&m, i, &mut rng).bit() {
                    Some(bit) if bit == (i % 2 == 0) => {}
                    _ => errors += 1,
                }
            }
        }
        // 26 dB SNR with threshold at half amplitude: error rate is
        // essentially the Gaussian tail at 10 sigma.
        assert_eq!(errors, 0);
    }

    #[test]
    fn heated_dots_read_weak() {
        let mut m = medium();
        let mut rng = StdRng::seed_from_u64(12);
        let ch = ReadChannel::default();
        m.heat(7);
        let weak = (0..200)
            .filter(|_| ch.detect(&m, 7, &mut rng) == Detection::Weak)
            .count();
        assert!(
            weak >= 198,
            "heated dot produced a peak {}/200 times",
            200 - weak
        );
    }

    #[test]
    fn noisy_channel_degrades_gracefully() {
        let mut m = medium();
        let mut rng = StdRng::seed_from_u64(13);
        // 6 dB channel: noise rms half the amplitude.
        let ch = ReadChannel::new(1.0, 0.5, 0.08, 0.5);
        m.write_mag(0, true);
        let mut weak = 0;
        let mut wrong = 0;
        for _ in 0..1000 {
            match ch.detect(&m, 0, &mut rng) {
                Detection::One => {}
                Detection::Weak => weak += 1,
                Detection::Zero => wrong += 1,
            }
        }
        assert!(weak > 50, "a 6 dB channel must show erasures: {weak}");
        assert!(wrong < weak, "hard errors should be rarer than erasures");
    }

    #[test]
    fn detect_run_orders_results() {
        let mut m = medium();
        let mut rng = StdRng::seed_from_u64(14);
        let ch = ReadChannel::default();
        m.write_mag(0, true);
        m.write_mag(1, false);
        m.heat(2);
        let run = ch.detect_run(&m, 0..3, &mut rng);
        assert_eq!(run[0], Detection::One);
        assert_eq!(run[1], Detection::Zero);
        assert_eq!(run[2], Detection::Weak);
    }

    #[test]
    fn snr_reported() {
        assert!((ReadChannel::default().snr_db() - 26.0).abs() < 0.1);
    }

    #[test]
    fn in_plane_sensing_needs_elliptic_dots() {
        use crate::film::CoPtFilm;
        use crate::medium::DotShape;
        let mut rng = StdRng::seed_from_u64(21);
        let ch = ReadChannel::default();

        let circular = Medium::new(Geometry::new(4, 4, 100.0));
        assert_eq!(ch.sense_heat_in_plane(&circular, 0, &mut rng), None);

        let mut elliptic = Medium::with_shape(
            Geometry::new(4, 4, 150.0),
            CoPtFilm::as_grown(),
            DotShape::Elliptic,
        );
        elliptic.write_mag(0, true);
        elliptic.heat(1);
        let mut wrong = 0;
        for _ in 0..200 {
            if ch.sense_heat_in_plane(&elliptic, 0, &mut rng) != Some(false) {
                wrong += 1;
            }
            if ch.sense_heat_in_plane(&elliptic, 1, &mut rng) != Some(true) {
                wrong += 1;
            }
        }
        assert_eq!(wrong, 0, "direct sensing should be clean at 26 dB");
    }

    #[test]
    fn default_channel_never_reaches_its_thresholds() {
        // Both out-of-plane cutoffs lie below the u1 floor, so every read
        // on the default channel takes the fast path.
        let envelope = ReadChannel::default().envelope;
        assert!(envelope.magnetic < U1_FLOOR, "{envelope:?}");
        assert!(envelope.leakage < U1_FLOOR, "{envelope:?}");
        assert!((envelope.magnetic / 1.9e-22 - 1.0).abs() < 0.05);
        assert!((envelope.leakage / 4.8e-16 - 1.0).abs() < 0.05);
        // The in-plane heated margin (0.35) is narrower: a cutoff of about
        // 2.3e-11 sends a sliver of those reads down the full path.
        assert!(envelope.in_plane_heated > U1_FLOOR && envelope.in_plane_heated < 1e-10);
    }

    #[test]
    fn no_margin_disables_the_skip() {
        // Leakage at or above the threshold leaves no margin to spend.
        let at = ReadChannel::new(1.0, 0.1, 0.5, 0.5).envelope;
        let above = ReadChannel::new(1.0, 0.1, 0.7, 0.5).envelope;
        assert_eq!(at.leakage, f64::INFINITY);
        assert_eq!(above.leakage, f64::INFINITY);
        // A threshold above the in-plane heated signal does the same.
        let high = ReadChannel::new(1.0, 0.1, 0.08, 0.9).envelope;
        assert_eq!(high.in_plane_heated, f64::INFINITY);
        assert!(high.magnetic < 1.0);
    }

    #[test]
    fn signal_stream_is_pinned() {
        // Raw signals, in-plane reads and the RNG word after them at a
        // fixed seed: the noise envelope must not move the channel's RNG
        // stream or any value drawn from it.
        let mut m = Medium::with_shape(
            Geometry::new(4, 4, 150.0),
            crate::film::CoPtFilm::as_grown(),
            crate::medium::DotShape::Elliptic,
        );
        m.write_mag(0, true);
        m.write_mag(1, false);
        m.heat(2);
        let cases = [
            (
                ReadChannel::default(),
                [
                    0x3ff1_bafc_371b_4b68,
                    0xbfef_47b6_8750_9677,
                    0xbfa7_6870_223f_f901,
                ],
            ),
            (
                ReadChannel::new(1.0, 0.5, 0.08, 0.5),
                [
                    0x4000_a6ed_1388_790a,
                    0xbfe8_cd21_4925_e0a4,
                    0xbfd1_1a52_f87b_1b90,
                ],
            ),
        ];
        for (ch, signals) in cases {
            let mut rng = StdRng::seed_from_u64(31);
            for (i, bits) in signals.into_iter().enumerate() {
                assert_eq!(ch.sense(&m, i as u64, &mut rng).to_bits(), bits);
            }
            for (i, heated) in [false, false, true].into_iter().enumerate() {
                assert_eq!(ch.sense_heat_in_plane(&m, i as u64, &mut rng), Some(heated));
            }
            assert_eq!(rng.random::<u64>(), 0xefce_deb3_0315_0f57);
        }
    }

    #[test]
    #[should_panic]
    fn threshold_above_amplitude_panics() {
        ReadChannel::new(1.0, 0.1, 0.1, 1.5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::film::CoPtFilm;
    use crate::geometry::Geometry;
    use crate::medium::DotShape;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// A random channel: amplitude 0.1–10, threshold 5–95% of it, leakage
    /// 0–150% of the threshold (so `m ≤ 0` occurs), and either no noise or
    /// a 3–30 dB peak SNR.
    fn channel() -> impl Strategy<Value = ReadChannel> {
        (0u64..=200, 50u64..=950, 0u64..=1500, 0u64..=2800).prop_map(|(a, t, l, snr)| {
            let amplitude = 10f64.powf((a as f64 - 100.0) / 100.0);
            let threshold = amplitude * t as f64 / 1000.0;
            let leakage = threshold * l as f64 / 1000.0;
            let noise = if snr < 100 {
                0.0
            } else {
                amplitude * 10f64.powf(-(3.0 + (snr - 100) as f64 / 100.0) / 20.0)
            };
            ReadChannel::new(amplitude, noise, leakage, threshold)
        })
    }

    /// An elliptic medium with `states` written in: 0 = down, 1 = up,
    /// 2 = heated.
    fn medium(states: &[u8]) -> Medium {
        let mut m = Medium::with_shape(
            Geometry::new(8, 8, 150.0),
            CoPtFilm::as_grown(),
            DotShape::Elliptic,
        );
        for (i, &s) in states.iter().enumerate() {
            match s {
                0 => m.write_mag(i as u64, false),
                1 => m.write_mag(i as u64, true),
                _ => m.heat(i as u64),
            };
        }
        m
    }

    fn threshold(ch: &ReadChannel, signal: f64) -> Detection {
        if signal >= ch.threshold {
            Detection::One
        } else if signal <= -ch.threshold {
            Detection::Zero
        } else {
            Detection::Weak
        }
    }

    /// Reads every dot of `m` through the fast paths with `fast` and
    /// through the full signal with `full`, asserting equal outcomes.
    fn assert_paths_agree<R: RngCore>(
        ch: &ReadChannel,
        m: &Medium,
        dots: u64,
        fast: &mut R,
        full: &mut R,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        for i in 0..dots {
            let detected = ch.detect(m, i, fast);
            let sensed = threshold(ch, ch.sense(m, i, full));
            prop_assert_eq!(detected, sensed, "dot {} of {:?}", i, ch);
            let in_plane = ch.sense_heat_in_plane(m, i, fast);
            let reference = ch
                .draw(Axis::InPlane, m.state(i), full)
                .signal(ch.noise_rms);
            prop_assert_eq!(
                in_plane,
                Some(reference >= ch.threshold),
                "dot {} of {:?}",
                i,
                ch
            );
        }
        Ok(())
    }

    /// Replays a fixed script of words, so a test can put `u1` exactly
    /// where it wants.
    struct Script(Vec<u64>, usize);

    impl RngCore for Script {
        fn next_u64(&mut self) -> u64 {
            let word = self.0[self.1 % self.0.len()];
            self.1 += 1;
            word
        }
    }

    /// The word that `random::<f64>()` turns into `k·2⁻⁵³`.
    fn word(k: u64) -> u64 {
        k << 11
    }

    proptest! {
        /// The noise envelope is exact: on random channels, dot states and
        /// seeds, `detect` equals thresholded `sense` and
        /// `sense_heat_in_plane` equals its full-signal comparison, and
        /// both RNGs end in the same state.
        #[test]
        fn fast_paths_equal_the_full_signal(
            ch in channel(),
            states in proptest::collection::vec(0u8..3, 64),
            seed in any::<u64>(),
        ) {
            let m = medium(&states);
            let mut fast = StdRng::seed_from_u64(seed);
            let mut full = StdRng::seed_from_u64(seed);
            for _ in 0..4 {
                assert_paths_agree(&ch, &m, 64, &mut fast, &mut full)?;
            }
            for _ in 0..4 {
                prop_assert_eq!(fast.next_u64(), full.next_u64());
            }
        }

        /// The same agreement with `u1` a few ulps either side of each
        /// cutoff and the cosine at 1, 0 and −1, where rounding would
        /// first show.
        #[test]
        fn fast_paths_hold_at_the_cutoffs(ch in channel(), nudge in 0u64..7) {
            // Dot 0 down, dot 1 up, dot 2 heated.
            let m = medium(&[0, 1, 2]);
            let envelope = ch.envelope;
            for cutoff in [envelope.magnetic, envelope.leakage, envelope.in_plane_heated] {
                if cutoff <= U1_FLOOR || cutoff >= 1.0 {
                    continue;
                }
                let u1 = word((cutoff * (1u64 << 53) as f64) as u64 + nudge - 3);
                for u2 in [0, 1 << 62, 1 << 63] {
                    // One read per script: heated dots read out of plane
                    // draw a sign and a near-maximal leakage first.
                    let reads: [(u64, Vec<u64>); 4] = [
                        (0, vec![u1, u2]),
                        (1, vec![u1, u2]),
                        (2, vec![0, u64::MAX, u1, u2]),
                        (2, vec![1, u64::MAX, u1, u2]),
                    ];
                    for (dot, words) in reads {
                        let (mut fast, mut full) = (Script(words.clone(), 0), Script(words, 0));
                        let sensed = threshold(&ch, ch.sense(&m, dot, &mut full));
                        prop_assert_eq!(ch.detect(&m, dot, &mut fast), sensed, "dot {} of {:?}", dot, ch);
                        prop_assert_eq!(fast.1, full.1);
                    }
                    for dot in [0, 2] {
                        let mut fast = Script(vec![u1, u2], 0);
                        let reference = ch
                            .draw(Axis::InPlane, m.state(dot), &mut Script(vec![u1, u2], 0))
                            .signal(ch.noise_rms);
                        let in_plane = ch.sense_heat_in_plane(&m, dot, &mut fast);
                        prop_assert_eq!(in_plane, Some(reference >= ch.threshold), "dot {} of {:?}", dot, ch);
                        prop_assert_eq!(fast.1, 2);
                    }
                }
            }
        }
    }
}
