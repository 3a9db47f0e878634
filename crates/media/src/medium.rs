//! The patterned medium: geometry + dot states + film physics in one unit.
//!
//! This is the object the probe device actuates over. It exposes the
//! *physical* operations only — directioned magnetic writes, magnetic reads
//! (with the Figure 2 "random result" behaviour on heated dots), and
//! irreversible heating. Protocol (bit/sector/line) layers live in
//! `sero-probe` and `sero-core`.
//!
//! # Examples
//!
//! ```
//! use sero_media::medium::Medium;
//! use sero_media::geometry::Geometry;
//! use rand::SeedableRng;
//!
//! let mut medium = Medium::new(Geometry::new(16, 16, 100.0));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! medium.write_mag(5, true);
//! assert_eq!(medium.read_mag(5, &mut rng), true);
//! medium.heat(5);
//! assert!(medium.is_heated(5)); // physically inspectable forever
//! ```

use crate::dot::{DotArray, DotState};
use crate::film::CoPtFilm;
use crate::geometry::Geometry;
use rand::Rng;

/// The lithographed shape of the dots.
///
/// §7 of the paper: circular dots have an easy *plane* once destroyed —
/// their in-plane magnetisation direction is unknowable, which is why
/// `erb` needs the five-step protocol. "By intentionally realising
/// elliptic dots with their long axis along the track direction, data
/// detection will be more robust" — a destroyed elliptic dot settles its
/// moment along the known track axis, so heat can be sensed *directly*
/// with one in-plane read. The price: "Since the anisotropy is low, data
/// density cannot be high however."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DotShape {
    /// Circular dots (the paper's default; highest density).
    #[default]
    Circular,
    /// Elliptic dots, long axis along the track.
    Elliptic,
}

/// A patterned magnetic medium.
///
/// Cloning is cheap: the dot states live in a copy-on-write
/// [`DotArray`], so a clone shares every page until one side writes it.
#[derive(Debug, Clone, PartialEq)]
pub struct Medium {
    geometry: Geometry,
    dots: DotArray,
    film: CoPtFilm,
    shape: DotShape,
    /// Dots rebuilt by a focused ion beam — physically distinguishable
    /// from lithographed originals under magnetic imaging (§8).
    reconstructed: std::collections::BTreeSet<u64>,
}

impl Medium {
    /// Creates a medium of as-grown Co/Pt film over `geometry`.
    pub fn new(geometry: Geometry) -> Medium {
        Medium::with_film(geometry, CoPtFilm::as_grown())
    }

    /// Creates a medium with a specific film recipe.
    pub fn with_film(geometry: Geometry, film: CoPtFilm) -> Medium {
        Medium::with_shape(geometry, film, DotShape::Circular)
    }

    /// Creates a medium with explicit dot shape (see [`DotShape`]).
    pub fn with_shape(geometry: Geometry, film: CoPtFilm, shape: DotShape) -> Medium {
        Medium {
            dots: DotArray::new(geometry.dot_count()),
            geometry,
            film,
            shape,
            reconstructed: std::collections::BTreeSet::new(),
        }
    }

    /// The dot shape of this medium.
    pub fn shape(&self) -> DotShape {
        self.shape
    }

    /// The dot-matrix geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The film recipe of the (unheated) dots.
    pub fn film(&self) -> &CoPtFilm {
        &self.film
    }

    /// Number of dots on the medium.
    pub fn dot_count(&self) -> u64 {
        self.dots.len()
    }

    /// Number of irreversibly heated dots.
    pub fn heated_count(&self) -> u64 {
        self.dots.heated_count()
    }

    /// Fraction of the medium consumed by heating.
    pub fn heated_fraction(&self) -> f64 {
        self.dots.heated_fraction()
    }

    /// Ground-truth state of dot `index`.
    pub fn state(&self, index: u64) -> DotState {
        self.dots.state(index)
    }

    /// Magnetic write `mwb`. No effect on heated dots; returns whether the
    /// write took.
    pub fn write_mag(&mut self, index: u64, bit: bool) -> bool {
        self.dots.write_mag(index, bit)
    }

    /// Magnetic writes of `bits` to consecutive dots from `first` — one
    /// [`Medium::write_mag`] per bit, resolved a page at a time. Returns
    /// how many heated dots refused the write.
    pub fn write_mag_run(&mut self, first: u64, bits: &[bool]) -> u64 {
        self.dots.write_mag_run(first, bits)
    }

    /// Ground-truth states of dots `first..first + out.len()`, resolved a
    /// page at a time.
    pub fn read_states(&self, first: u64, out: &mut [DotState]) {
        self.dots.read_states(first, out);
    }

    /// Magnetic read `mrb`.
    ///
    /// Heated dots have no out-of-plane magnetisation: per Figure 2 the
    /// result is "more or less random", modelled with the caller's `rng`
    /// (keeping the medium itself deterministic and cloneable for
    /// snapshot-based tests).
    pub fn read_mag<R: Rng + ?Sized>(&self, index: u64, rng: &mut R) -> bool {
        match self.dots.state(index).magnetic_bit() {
            Some(bit) => bit,
            None => rng.random(),
        }
    }

    /// Electrical write `ewb`: destroy the dot's multilayer irreversibly.
    ///
    /// Returns whether the dot was newly heated. Thermal side effects on
    /// neighbours are modelled by [`crate::thermal`], which calls this.
    pub fn heat(&mut self, index: u64) -> bool {
        self.dots.heat(index)
    }

    /// True when dot `index` has been heated. This is the *physical*
    /// inspection the `erb` protocol approximates through magnetic
    /// operations.
    pub fn is_heated(&self, index: u64) -> bool {
        self.dots.is_heated(index)
    }

    /// §5.2 bulk-erase attack: "If done properly, this would clear all
    /// magnetically written information. However all electrically written
    /// information is still present."
    ///
    /// Every unheated dot is randomised (a degausser leaves no coherent
    /// data); heated dots are untouched.
    pub fn bulk_erase<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in 0..self.dots.len() {
            if !self.dots.is_heated(i) {
                self.dots.write_mag(i, rng.random());
            }
        }
    }

    /// Heated-dot indices in `range` — the forensic scan primitive used by
    /// fsck-style recovery (§5.2) and the Figure 3 layout dump.
    pub fn heated_in(&self, range: core::ops::Range<u64>) -> Vec<u64> {
        range.filter(|&i| self.dots.is_heated(i)).collect()
    }

    /// The §8 nation-state adversary: a focused-ion-beam rebuild of dot
    /// `index` into a working magnetic dot holding `bit`.
    ///
    /// The paper judges this "difficult": the operator "would have to
    /// remove the debris of an in-plane dot first, and then deposit
    /// several thin Co and Pt layers in a sub-micron area with the correct
    /// delicate layer structure … just to reconstruct one dot" — and the
    /// rebuilt dot remains distinguishable under magnetic imaging. The
    /// simulation grants the attacker full success at the *data* level and
    /// records the physical scar for [`crate::forensics`] to find.
    pub fn fib_reconstruct(&mut self, index: u64, bit: bool) {
        self.dots.fib_rewrite(index, bit);
        self.reconstructed.insert(index);
    }

    /// Number of FIB-reconstructed dots on the medium.
    pub fn reconstructed_count(&self) -> usize {
        self.reconstructed.len()
    }

    /// Whether dot `index` carries a reconstruction scar (ground truth;
    /// the probabilistic detector lives in [`crate::forensics`]).
    pub fn is_reconstructed(&self, index: u64) -> bool {
        self.reconstructed.contains(&index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small() -> Medium {
        Medium::new(Geometry::new(8, 8, 100.0))
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = small();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..m.dot_count() {
            let bit = i % 3 == 0;
            assert!(m.write_mag(i, bit));
            assert_eq!(m.read_mag(i, &mut rng), bit);
        }
    }

    #[test]
    fn heated_dot_reads_randomly() {
        let mut m = small();
        m.write_mag(0, true);
        m.heat(0);
        let mut rng = StdRng::seed_from_u64(42);
        let reads: Vec<bool> = (0..256).map(|_| m.read_mag(0, &mut rng)).collect();
        let ones = reads.iter().filter(|&&b| b).count();
        // Random, not stuck: expect a healthy mix.
        assert!(ones > 64 && ones < 192, "ones = {ones}");
    }

    #[test]
    fn bulk_erase_spares_heated_dots() {
        let mut m = small();
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..m.dot_count() {
            m.write_mag(i, true);
        }
        for i in [1u64, 9, 17, 33] {
            m.heat(i);
        }
        m.bulk_erase(&mut rng);
        // Heated dots still identifiable.
        for i in [1u64, 9, 17, 33] {
            assert!(m.is_heated(i));
        }
        assert_eq!(m.heated_count(), 4);
        // Magnetic data is gone: the all-ones pattern did not survive.
        let survivors = (0..m.dot_count())
            .filter(|&i| !m.is_heated(i))
            .filter(|&i| m.state(i) == DotState::Up)
            .count();
        assert!(survivors < 55, "degausser left {survivors}/60 dots intact");
    }

    #[test]
    fn heated_in_finds_pattern() {
        let mut m = small();
        m.heat(10);
        m.heat(12);
        m.heat(40);
        assert_eq!(m.heated_in(0..20), vec![10, 12]);
        assert_eq!(m.heated_in(20..64), vec![40]);
    }

    #[test]
    fn film_accessible() {
        let m = small();
        assert!(m.film().is_perpendicular());
        assert_eq!(m.geometry().pitch_nm(), 100.0);
    }
}
