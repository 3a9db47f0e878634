//! The tri-state magnetic dot and its packed storage.
//!
//! Figure 2 of the paper defines the state machine of one bit:
//!
//! * `0` / `1` — magnetisation down / up along the perpendicular easy axis.
//!   `mwb` moves freely between these; `mrb` senses them.
//! * `H` — heated. The electrical write `ewb` destroys the multilayer
//!   interfaces, the easy axis falls in-plane, and the dot can never hold a
//!   perpendicular bit again. `H` is **absorbing**: no operation leaves it.
//!
//! Reading a heated dot magnetically "would yield a more or less random
//! result" (§3) — randomness is injected where reads happen, not stored
//! here, so the state itself stays deterministic and snapshot-friendly.
//!
//! # Examples
//!
//! ```
//! use sero_media::dot::{DotArray, DotState};
//!
//! let mut dots = DotArray::new(8);
//! dots.write_mag(3, true);
//! assert_eq!(dots.state(3), DotState::Up);
//! dots.heat(3);
//! assert_eq!(dots.state(3), DotState::Heated);
//! dots.write_mag(3, false); // no effect: H is absorbing
//! assert_eq!(dots.state(3), DotState::Heated);
//! ```

use core::fmt;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// Physical state of a single dot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DotState {
    /// Magnetised downwards — logical 0.
    Down,
    /// Magnetised upwards — logical 1.
    Up,
    /// Irreversibly heated — the paper's `H`.
    Heated,
}

impl DotState {
    /// The logical bit stored magnetically, if any.
    pub fn magnetic_bit(self) -> Option<bool> {
        match self {
            DotState::Down => Some(false),
            DotState::Up => Some(true),
            DotState::Heated => None,
        }
    }

    /// The state a magnetic write of `bit` leaves on an intact dot.
    pub fn magnetised(bit: bool) -> DotState {
        if bit {
            DotState::Up
        } else {
            DotState::Down
        }
    }

    /// True for the heated (destroyed) state.
    pub fn is_heated(self) -> bool {
        self == DotState::Heated
    }

    fn to_bits(self) -> u8 {
        match self {
            DotState::Down => 0b00,
            DotState::Up => 0b01,
            DotState::Heated => 0b10,
        }
    }

    fn from_bits(bits: u8) -> DotState {
        match bits & 0b11 {
            0b00 => DotState::Down,
            0b01 => DotState::Up,
            _ => DotState::Heated,
        }
    }
}

impl fmt::Display for DotState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            DotState::Down => '0',
            DotState::Up => '1',
            DotState::Heated => 'H',
        };
        write!(f, "{c}")
    }
}

impl Default for DotState {
    /// Fresh media leave the factory demagnetised; we model that as all
    /// dots down (logical 0).
    fn default() -> DotState {
        DotState::Down
    }
}

/// Dots per 64-bit storage word (two bits each).
const DOTS_PER_WORD: u64 = 32;

/// Storage words per page: 4 KiB pages.
const WORDS_PER_PAGE: usize = 512;

/// Dots per page.
const DOTS_PER_PAGE: u64 = DOTS_PER_WORD * WORDS_PER_PAGE as u64;

/// Mask of the low bit of every two-bit dot in a word.
const LOW_BITS: u64 = 0x5555_5555_5555_5555;

/// One 4 KiB page of packed dots.
///
/// The words are atomics only so that an unshared page can be written
/// through the `Arc` that holds it without `unsafe`; every access is a
/// `Relaxed` load or store, which compiles to a plain move.
struct Page([AtomicU64; WORDS_PER_PAGE]);

/// The page every never-written page table slot stands for.
static ZERO_PAGE: Page = Page([const { AtomicU64::new(0) }; WORDS_PER_PAGE]);

impl Page {
    fn copy(&self) -> Page {
        Page(std::array::from_fn(|w| AtomicU64::new(self.word(w))))
    }

    fn word(&self, w: usize) -> u64 {
        self.0[w].load(Ordering::Relaxed)
    }

    fn set_word(&self, w: usize, value: u64) {
        self.0[w].store(value, Ordering::Relaxed);
    }
}

/// A page table slot: `None` is the shared [`ZERO_PAGE`].
type Slot = Option<Arc<Page>>;

fn page_of(slot: &Slot) -> &Page {
    slot.as_deref().unwrap_or(&ZERO_PAGE)
}

/// Replaces a shared page with a private copy. Out of line, so the
/// 4 KiB temporary never enlarges the stack frame of the write paths.
#[cold]
#[inline(never)]
fn unshare(slot: &mut Slot) {
    *slot = Some(Arc::new(page_of(slot).copy()));
}

/// Word of `index` within its page, and the shift of its two bits.
fn word_at(index: u64) -> (usize, u64) {
    (
        (index / DOTS_PER_WORD) as usize % WORDS_PER_PAGE,
        (index % DOTS_PER_WORD) * 2,
    )
}

/// Densely packed array of dot states, two bits per dot, stored as a
/// copy-on-write table of 4 KiB pages.
///
/// A 2²⁰-block medium holds ~5 × 10⁹ dots, a gigabyte packed. Storage is
/// paid only for what differs from fresh media: every page of a new array
/// is one shared zero page, [`Clone`] copies just the page table, and a
/// write copies the one page it lands on if another array still shares
/// it. Clones are fully independent in behaviour — a write through one is
/// never visible through another.
#[derive(Clone)]
pub struct DotArray {
    pages: Vec<Slot>,
    len: u64,
    heated: u64,
}

impl PartialEq for DotArray {
    /// Content equality; pages still shared with `other` compare by
    /// pointer alone.
    fn eq(&self, other: &DotArray) -> bool {
        self.len == other.len
            && self.heated == other.heated
            && self.pages.iter().zip(&other.pages).all(|(a, b)| {
                let (a, b) = (page_of(a), page_of(b));
                core::ptr::eq(a, b) || (0..WORDS_PER_PAGE).all(|w| a.word(w) == b.word(w))
            })
    }
}

impl Eq for DotArray {}

impl fmt::Debug for DotArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DotArray")
            .field("len", &self.len)
            .field("heated", &self.heated)
            .finish()
    }
}

impl DotArray {
    /// Creates `len` dots, all in the default [`DotState::Down`] state.
    pub fn new(len: u64) -> DotArray {
        DotArray {
            pages: vec![None; len.div_ceil(DOTS_PER_PAGE) as usize],
            len,
            heated: 0,
        }
    }

    /// Number of dots.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the array holds no dots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of heated dots (maintained incrementally).
    pub fn heated_count(&self) -> u64 {
        self.heated
    }

    fn page(&self, index: u64) -> &Page {
        page_of(&self.pages[(index / DOTS_PER_PAGE) as usize])
    }

    /// The page holding `index`, made private to this array first.
    ///
    /// `&mut self` means nothing can clone from this array meanwhile, and
    /// no `Weak` to a page is ever made, so a strong count of one proves
    /// no other array shares the page and it may be written in place.
    /// The acquire fence pairs with the release decrement of the clone
    /// that dropped its share last, so its reads happen before our writes.
    fn page_mut(&mut self, index: u64) -> &Page {
        let slot = &mut self.pages[(index / DOTS_PER_PAGE) as usize];
        if slot
            .as_ref()
            .is_some_and(|page| Arc::strong_count(page) == 1)
        {
            fence(Ordering::Acquire);
        } else {
            unshare(slot);
        }
        page_of(slot)
    }

    /// The state of dot `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn state(&self, index: u64) -> DotState {
        assert!(index < self.len, "dot index {index} out of range");
        let (w, shift) = word_at(index);
        DotState::from_bits((self.page(index).word(w) >> shift) as u8)
    }

    /// Reads the states of dots `first..first + out.len()` into `out`,
    /// resolving each page once per run rather than once per dot.
    ///
    /// # Panics
    ///
    /// Panics when the run reaches past the last dot.
    pub fn read_states(&self, first: u64, out: &mut [DotState]) {
        let end = first + out.len() as u64;
        assert!(end <= self.len, "dot run {first}..{end} out of range");
        let mut index = first;
        let mut out = out;
        while !out.is_empty() {
            let in_page = (DOTS_PER_PAGE - index % DOTS_PER_PAGE) as usize;
            let (run, rest) = out.split_at_mut(in_page.min(out.len()));
            let page = self.page(index);
            for state in run {
                let (w, shift) = word_at(index);
                *state = DotState::from_bits((page.word(w) >> shift) as u8);
                index += 1;
            }
            out = rest;
        }
    }

    fn set_state(&mut self, index: u64, state: DotState) {
        let (w, shift) = word_at(index);
        let page = self.page_mut(index);
        let word = page.word(w) & !(0b11 << shift);
        page.set_word(w, word | (u64::from(state.to_bits()) << shift));
    }

    /// Magnetic write (`mwb`): sets the magnetisation direction.
    ///
    /// Has no effect on heated dots — there is no perpendicular axis left to
    /// magnetise (Figure 2 bottom: `mwb 0/1` loops on `H`). Returns whether
    /// the write took effect.
    pub fn write_mag(&mut self, index: u64, bit: bool) -> bool {
        match self.state(index) {
            DotState::Heated => false,
            _ => {
                self.set_state(index, DotState::magnetised(bit));
                true
            }
        }
    }

    /// Magnetic writes of `bits` to consecutive dots from `first`: the
    /// same outcome as a [`DotArray::write_mag`] per bit, with each page
    /// resolved and each word stored once per run. Returns how many dots
    /// refused the write because they are heated.
    ///
    /// # Panics
    ///
    /// Panics when the run reaches past the last dot.
    pub fn write_mag_run(&mut self, first: u64, bits: &[bool]) -> u64 {
        let end = first + bits.len() as u64;
        assert!(end <= self.len, "dot run {first}..{end} out of range");
        let mut refused = 0;
        let mut index = first;
        let mut bits = bits;
        while index < end {
            let page_end = ((index / DOTS_PER_PAGE + 1) * DOTS_PER_PAGE).min(end);
            let page = self.page_mut(index);
            while index < page_end {
                let word_end = ((index / DOTS_PER_WORD + 1) * DOTS_PER_WORD).min(page_end);
                let (w, first_shift) = word_at(index);
                let (run, rest) = bits.split_at((word_end - index) as usize);
                bits = rest;
                let mut value = 0u64;
                for (k, &bit) in run.iter().enumerate() {
                    value |= u64::from(bit) << (first_shift + 2 * k as u64);
                }
                let span = if run.len() as u64 == DOTS_PER_WORD {
                    u64::MAX
                } else {
                    ((1u64 << (2 * run.len())) - 1) << first_shift
                };
                let old = page.word(w);
                // A heated dot holds 0b10: its high bit marks it, and it
                // keeps its bits; every other dot in the span takes `bits`.
                let heated = (old >> 1) & LOW_BITS & span;
                let keep = (heated * 0b11) | !span;
                refused += u64::from(heated.count_ones());
                page.set_word(w, (old & keep) | (value & !keep));
                index = word_end;
            }
        }
        refused
    }

    /// Electrical write (`ewb`): irreversibly heats the dot.
    ///
    /// Returns `true` when the dot was newly heated, `false` when it was
    /// already heated (reheating is idempotent and harmless).
    pub fn heat(&mut self, index: u64) -> bool {
        match self.state(index) {
            DotState::Heated => false,
            _ => {
                self.set_state(index, DotState::Heated);
                self.heated += 1;
                true
            }
        }
    }

    /// Ground-truth heat inspection — what a forensic magnetic-imaging pass
    /// would reveal (§8 "Forensics").
    pub fn is_heated(&self, index: u64) -> bool {
        self.state(index).is_heated()
    }

    /// Focused-ion-beam reconstruction: physically rebuilds a destroyed
    /// dot's multilayer so it holds `bit` again — the §8 "skilled FIB
    /// operator" adversary. Returns whether the dot was heated before.
    ///
    /// This deliberately violates the Figure 2 state machine (nothing the
    /// *device* can do leaves `H`); only [`crate::medium::Medium`] exposes
    /// it, tagged so forensic imaging can find the scar.
    pub(crate) fn fib_rewrite(&mut self, index: u64, bit: bool) -> bool {
        let was_heated = self.is_heated(index);
        if was_heated {
            self.heated -= 1;
        }
        self.set_state(index, DotState::magnetised(bit));
        was_heated
    }

    /// Iterator over all dot states in index order.
    pub fn iter(&self) -> impl Iterator<Item = DotState> + '_ {
        (0..self.len).map(move |i| self.state(i))
    }

    /// Fraction of dots heated.
    pub fn heated_fraction(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.heated as f64 / self.len as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_state_is_down() {
        let dots = DotArray::new(16);
        assert!(dots.iter().all(|s| s == DotState::Down));
        assert_eq!(dots.heated_count(), 0);
    }

    #[test]
    fn magnetic_writes_flip_freely() {
        let mut dots = DotArray::new(4);
        assert!(dots.write_mag(1, true));
        assert_eq!(dots.state(1), DotState::Up);
        assert!(dots.write_mag(1, false));
        assert_eq!(dots.state(1), DotState::Down);
        assert!(dots.write_mag(1, true));
        assert_eq!(dots.state(1), DotState::Up);
    }

    #[test]
    fn heat_is_absorbing() {
        let mut dots = DotArray::new(4);
        dots.write_mag(2, true);
        assert!(dots.heat(2));
        assert_eq!(dots.state(2), DotState::Heated);
        // mwb on H: no effect.
        assert!(!dots.write_mag(2, false));
        assert_eq!(dots.state(2), DotState::Heated);
        // Re-heating: idempotent, not counted twice.
        assert!(!dots.heat(2));
        assert_eq!(dots.heated_count(), 1);
    }

    #[test]
    fn heated_count_tracks() {
        let mut dots = DotArray::new(100);
        for i in (0..100).step_by(3) {
            dots.heat(i);
        }
        assert_eq!(dots.heated_count(), 34);
        assert!((dots.heated_fraction() - 0.34).abs() < 1e-12);
    }

    #[test]
    fn packing_is_independent_per_dot() {
        // Dots sharing a byte must not interfere.
        let mut dots = DotArray::new(8);
        dots.write_mag(0, true);
        dots.heat(1);
        dots.write_mag(2, true);
        dots.write_mag(3, false);
        assert_eq!(dots.state(0), DotState::Up);
        assert_eq!(dots.state(1), DotState::Heated);
        assert_eq!(dots.state(2), DotState::Up);
        assert_eq!(dots.state(3), DotState::Down);
        dots.write_mag(0, false);
        assert_eq!(dots.state(1), DotState::Heated);
        assert_eq!(dots.state(2), DotState::Up);
    }

    #[test]
    fn magnetic_bit_mapping() {
        assert_eq!(DotState::Down.magnetic_bit(), Some(false));
        assert_eq!(DotState::Up.magnetic_bit(), Some(true));
        assert_eq!(DotState::Heated.magnetic_bit(), None);
    }

    #[test]
    fn display_notation() {
        assert_eq!(DotState::Down.to_string(), "0");
        assert_eq!(DotState::Up.to_string(), "1");
        assert_eq!(DotState::Heated.to_string(), "H");
    }

    #[test]
    fn odd_sizes_work() {
        for len in [1u64, 3, 5, 7, 9, 1023] {
            let mut dots = DotArray::new(len);
            dots.heat(len - 1);
            assert_eq!(dots.heated_count(), 1);
            assert_eq!(dots.state(len - 1), DotState::Heated);
        }
        assert!(DotArray::new(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        DotArray::new(4).state(4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// One step of a script over an array and its tree of clones. Each
    /// step names its array and dot as raw draws, reduced modulo the
    /// current array count and length when it runs.
    #[derive(Debug, Clone)]
    enum Step {
        Write(usize, u64, bool),
        Heat(usize, u64),
        Fib(usize, u64, bool),
        Run(usize, u64, Vec<bool>),
        Clone(usize),
    }

    /// Most clones a script keeps.
    const MAX_ARRAYS: usize = 8;

    /// A dot draw: half land within 40 dots of a page boundary.
    fn dot() -> impl Strategy<Value = u64> {
        prop_oneof![
            (1u64..4, 0u64..80).prop_map(|(page, offset)| page * DOTS_PER_PAGE + offset - 40),
            any::<u64>(),
        ]
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (any::<usize>(), dot(), any::<bool>()).prop_map(|(a, d, b)| Step::Write(a, d, b)),
            (any::<usize>(), dot()).prop_map(|(a, d)| Step::Heat(a, d)),
            (any::<usize>(), dot(), any::<bool>()).prop_map(|(a, d, b)| Step::Fib(a, d, b)),
            (
                any::<usize>(),
                dot(),
                proptest::collection::vec(any::<bool>(), 0..100)
            )
                .prop_map(|(a, d, bits)| Step::Run(a, d, bits)),
            any::<usize>().prop_map(Step::Clone),
        ]
    }

    /// Cases per property: more where an optimised build makes them cheap.
    const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 512 };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        /// Every array in a tree of clones behaves as its own flat
        /// `Vec<DotState>`: writes through one never show through
        /// another, whether or not they still share the written page.
        #[test]
        fn clones_match_flat_oracles(
            len in (2 * DOTS_PER_PAGE - 100)..(3 * DOTS_PER_PAGE + 100),
            script in proptest::collection::vec(step(), 1..48),
        ) {
            let mut arrays = vec![DotArray::new(len)];
            let mut oracles = vec![vec![DotState::Down; len as usize]];
            for step in script {
                match step {
                    Step::Write(a, d, bit) => {
                        let (a, d) = (a % arrays.len(), d % len);
                        let oracle = &mut oracles[a][d as usize];
                        let took = !oracle.is_heated();
                        if took {
                            *oracle = DotState::magnetised(bit);
                        }
                        prop_assert_eq!(arrays[a].write_mag(d, bit), took);
                    }
                    Step::Heat(a, d) => {
                        let (a, d) = (a % arrays.len(), d % len);
                        let oracle = &mut oracles[a][d as usize];
                        let fresh = !oracle.is_heated();
                        *oracle = DotState::Heated;
                        prop_assert_eq!(arrays[a].heat(d), fresh);
                    }
                    Step::Fib(a, d, bit) => {
                        let (a, d) = (a % arrays.len(), d % len);
                        let oracle = &mut oracles[a][d as usize];
                        let was_heated = oracle.is_heated();
                        *oracle = DotState::magnetised(bit);
                        prop_assert_eq!(arrays[a].fib_rewrite(d, bit), was_heated);
                    }
                    Step::Run(a, d, mut bits) => {
                        let (a, d) = (a % arrays.len(), d % len);
                        bits.truncate((len - d) as usize);
                        let mut refused = 0;
                        for (oracle, &bit) in oracles[a][d as usize..].iter_mut().zip(&bits) {
                            if oracle.is_heated() {
                                refused += 1;
                            } else {
                                *oracle = DotState::magnetised(bit);
                            }
                        }
                        prop_assert_eq!(arrays[a].write_mag_run(d, &bits), refused);
                    }
                    Step::Clone(a) => {
                        let a = a % arrays.len();
                        if arrays.len() < MAX_ARRAYS {
                            arrays.push(arrays[a].clone());
                            oracles.push(oracles[a].clone());
                        }
                    }
                }
            }
            for (array, oracle) in arrays.iter().zip(&oracles) {
                prop_assert!(array.iter().eq(oracle.iter().copied()));
                let heated = oracle.iter().filter(|s| s.is_heated()).count() as u64;
                prop_assert_eq!(array.heated_count(), heated);
                let mut states = vec![DotState::Down; len as usize];
                array.read_states(0, &mut states);
                prop_assert!(&states == oracle);
            }
            for i in 0..arrays.len() {
                for j in 0..arrays.len() {
                    prop_assert_eq!(arrays[i] == arrays[j], oracles[i] == oracles[j], "arrays {} and {}", i, j);
                }
            }
        }

        /// A run write equals a `write_mag` per dot: the same refused
        /// count and final states, over heated dots, odd lengths and runs
        /// that cross pages, on a clone that still shares its pages.
        #[test]
        fn run_write_equals_per_dot_writes(
            len in 1u64..(3 * DOTS_PER_PAGE),
            first in dot(),
            run in 0usize..(DOTS_PER_PAGE as usize + 200),
            heated in proptest::collection::vec(any::<u64>(), 0..64),
            bits_seed in any::<u64>(),
        ) {
            let first = first % len;
            let run = run.min((len - first) as usize);
            let mut base = DotArray::new(len);
            for (k, h) in heated.iter().enumerate() {
                // Most heat lands inside the run, some anywhere.
                let dot = if k % 4 == 0 || run == 0 { h % len } else { first + h % run as u64 };
                base.heat(dot);
            }
            let bits: Vec<bool> = (0..run as u64)
                .map(|i| (bits_seed.rotate_left((i % 64) as u32) ^ i) & 1 == 1)
                .collect();
            let snapshot = base.iter().collect::<Vec<_>>();

            let mut by_run = base.clone();
            let mut by_dot = base.clone();
            let refused = by_run.write_mag_run(first, &bits);
            let mut expected = 0;
            for (i, &bit) in bits.iter().enumerate() {
                if !by_dot.write_mag(first + i as u64, bit) {
                    expected += 1;
                }
            }
            prop_assert_eq!(refused, expected);
            prop_assert!(by_run.iter().eq(by_dot.iter()));
            prop_assert!(by_run == by_dot);
            prop_assert_eq!(by_run.heated_count(), base.heated_count());
            prop_assert!(base.iter().eq(snapshot.iter().copied()));
        }
    }
}
