//! The probe-storage device: bit and sector operations with timing.
//!
//! This is the µSPAM of §6 as a device model. It owns the patterned
//! [`Medium`], an MFM [`ReadChannel`], a [`ThermalModel`] for heat pulses,
//! a stepper [`Actuator`], and a [`SectorCodec`], and exposes exactly the
//! operation families §3 of the paper defines:
//!
//! * **Magnetic bit ops** `mrb` / `mwb` — read/sense and set dot
//!   magnetisation.
//! * **Electrical bit ops** `ewb` / `erb` — destroy a dot by tip-current
//!   heating, and detect destruction through the paper's five-step
//!   read–invert–verify protocol (erb is "at least 5 times slower").
//! * **Sector ops** `mrs` / `mws` / `ers` / `ews` — 512-byte sectors with
//!   the ~15 % header/CRC/ECC overhead, and the electrical (Manchester)
//!   variants used for heated hash blocks.
//!
//! The medium is laid out one block per track row: block `pba` occupies
//! dots `[pba · SECTOR_DOTS, (pba+1) · SECTOR_DOTS)`, so heat leakage from
//! an `ews` can disturb the same dot column of *adjacent blocks* — the
//! cross-track risk §7 warns about.
//!
//! # Examples
//!
//! ```
//! use sero_probe::device::ProbeDevice;
//!
//! let mut dev = ProbeDevice::builder().blocks(16).build();
//! let data = [0x5au8; 512];
//! dev.mws(3, &data)?;
//! assert_eq!(dev.mrs(3)?.data, data);
//! # Ok::<(), sero_probe::sector::SectorError>(())
//! ```

use crate::actuator::Actuator;
use crate::faults::{FaultPlan, FaultState, FaultStats};
use crate::sector::{
    DecodedSector, SectorCodec, SectorError, DATA_AREA_DOTS, DATA_AREA_FIRST_DOT, ELECTRICAL_CELLS,
    SECTOR_DATA_BYTES, SECTOR_DOTS, SECTOR_TOTAL_BYTES,
};
use crate::timing::{CostModel, OpCounters, SimClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sero_codec::manchester::{self, Scan};
use sero_media::dot::DotState;
use sero_media::geometry::Geometry;
use sero_media::medium::{DotShape, Medium};
use sero_media::mfm::{Detection, ReadChannel};
use sero_media::thermal::ThermalModel;

/// Result of probing a single dot with the five-step `erb` protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DotProbe {
    /// The dot inverted and restored cleanly: its multilayer is intact.
    Unheated {
        /// The magnetic bit the dot held (and holds again).
        bit: bool,
    },
    /// A verification step failed or the signal was weak: the dot has lost
    /// its out-of-plane property.
    Heated,
}

impl DotProbe {
    /// True for [`DotProbe::Heated`].
    pub fn is_heated(self) -> bool {
        matches!(self, DotProbe::Heated)
    }
}

/// Outcome of a magnetic sector write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteReport {
    /// Dots in the footprint that refused the write because they are
    /// heated. A nonzero count on a supposedly fresh block is suspicious.
    pub unwritable_dots: usize,
}

/// Outcome of an electrical sector write (heating).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EwsReport {
    /// Dots newly heated on purpose.
    pub heated_dots: usize,
    /// Dots destroyed by lateral heat leakage (collateral damage).
    pub collateral_destroyed: Vec<u64>,
    /// Dots whose magnetic state was randomised by heat leakage.
    pub disturbed: Vec<u64>,
}

/// Builder for [`ProbeDevice`].
#[derive(Debug, Clone)]
pub struct ProbeDeviceBuilder {
    blocks: u64,
    pitch_nm: f64,
    probes: u32,
    cost: CostModel,
    channel: ReadChannel,
    thermal: Option<ThermalModel>,
    seed: u64,
    shape: DotShape,
}

impl Default for ProbeDeviceBuilder {
    fn default() -> ProbeDeviceBuilder {
        ProbeDeviceBuilder {
            blocks: 64,
            pitch_nm: 100.0,
            probes: 64,
            cost: CostModel::default(),
            channel: ReadChannel::default(),
            thermal: None,
            seed: 0x5e20_0001,
            shape: DotShape::Circular,
        }
    }
}

impl ProbeDeviceBuilder {
    /// Number of 512-byte blocks on the device.
    pub fn blocks(mut self, blocks: u64) -> ProbeDeviceBuilder {
        self.blocks = blocks;
        self
    }

    /// Dot pitch in nanometres (default 100 nm, the paper's target).
    pub fn pitch_nm(mut self, pitch_nm: f64) -> ProbeDeviceBuilder {
        self.pitch_nm = pitch_nm;
        self
    }

    /// Number of probes operating in parallel (default 64).
    pub fn probes(mut self, probes: u32) -> ProbeDeviceBuilder {
        self.probes = probes;
        self
    }

    /// Timing model override.
    pub fn cost(mut self, cost: CostModel) -> ProbeDeviceBuilder {
        self.cost = cost;
        self
    }

    /// Read-channel override (e.g. a noisier tip).
    pub fn channel(mut self, channel: ReadChannel) -> ProbeDeviceBuilder {
        self.channel = channel;
        self
    }

    /// Thermal model override (default: well designed for the pitch).
    pub fn thermal(mut self, thermal: ThermalModel) -> ProbeDeviceBuilder {
        self.thermal = Some(thermal);
        self
    }

    /// RNG seed for channel noise and heated-dot reads.
    pub fn seed(mut self, seed: u64) -> ProbeDeviceBuilder {
        self.seed = seed;
        self
    }

    /// Uses elliptic dots (long axis along the track), enabling the
    /// direct in-plane heat read `erb_direct` at the cost of density —
    /// the §3/§7 design alternative. The paper suggests ≥150 nm pitches
    /// for the low-anisotropy elliptic medium.
    pub fn elliptic_dots(mut self) -> ProbeDeviceBuilder {
        self.shape = DotShape::Elliptic;
        self
    }

    /// Builds the device.
    ///
    /// # Panics
    ///
    /// Panics on zero blocks or zero probes.
    pub fn build(self) -> ProbeDevice {
        assert!(self.blocks > 0, "device needs at least one block");
        assert!(self.probes > 0, "device needs at least one probe");
        assert!(
            self.blocks <= u32::MAX as u64,
            "one block per track row: at most 2^32 - 1 blocks"
        );
        let geometry = Geometry::new(self.blocks as u32, SECTOR_DOTS as u32, self.pitch_nm);
        let thermal = self
            .thermal
            .unwrap_or_else(|| ThermalModel::well_designed(self.pitch_nm));
        ProbeDevice {
            medium: Medium::with_shape(
                geometry,
                sero_media::film::CoPtFilm::as_grown(),
                self.shape,
            ),
            channel: self.channel,
            thermal,
            cost: self.cost,
            clock: SimClock::new(),
            counters: OpCounters::default(),
            actuator: Actuator::new(self.cost),
            codec: SectorCodec::new(),
            probes: self.probes,
            blocks: self.blocks,
            rng: StdRng::seed_from_u64(self.seed),
            faults: None,
        }
    }
}

/// A simulated micro scanning probe array memory.
///
/// Fields are `pub(crate)` so the extent fast path in [`crate::extent`]
/// can drive the same primitives without re-paying per-call setup.
#[derive(Debug, Clone)]
pub struct ProbeDevice {
    pub(crate) medium: Medium,
    pub(crate) channel: ReadChannel,
    pub(crate) thermal: ThermalModel,
    pub(crate) cost: CostModel,
    pub(crate) clock: SimClock,
    pub(crate) counters: OpCounters,
    pub(crate) actuator: Actuator,
    pub(crate) codec: SectorCodec,
    pub(crate) probes: u32,
    pub(crate) blocks: u64,
    pub(crate) rng: StdRng,
    /// Armed fault-injection state, if any. Owns its own RNG, so arming
    /// a plan never perturbs the channel-noise stream above.
    pub(crate) faults: Option<FaultState>,
}

impl ProbeDevice {
    /// Starts building a device.
    pub fn builder() -> ProbeDeviceBuilder {
        ProbeDeviceBuilder::default()
    }

    /// Number of 512-byte blocks.
    pub fn block_count(&self) -> u64 {
        self.blocks
    }

    /// Elapsed simulated time.
    pub fn clock(&self) -> SimClock {
        self.clock
    }

    /// Advances the simulated clock by externally accounted time — used by
    /// controllers that fan work out over device clones (e.g. the parallel
    /// scrub) and merge the concurrent elapsed time back into the original.
    pub fn advance_clock(&mut self, ns: u64) {
        self.clock.advance(ns);
    }

    /// Operation counters.
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Read access to the physical medium (forensic inspection).
    pub fn medium(&self) -> &Medium {
        &self.medium
    }

    /// Raw mutable access to the physical medium.
    ///
    /// This is the attack surface: §5's powerful insider can "disconnect
    /// the storage device temporarily from the system, then connect it to a
    /// laptop with the appropriate interface". The security analysis crate
    /// uses this to bypass every protocol check.
    pub fn medium_mut(&mut self) -> &mut Medium {
        &mut self.medium
    }

    // --- fault injection --------------------------------------------------

    /// Arms a seeded [`FaultPlan`]: bit-rot flips are applied to the
    /// medium immediately, and every later sector read/write and seek
    /// consults the plan at the same choke points real hardware faults
    /// would surface through. Replaces any previously armed plan.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        let mut rotted = 0u64;
        for &(pba, offset) in &plan.bit_rot {
            if pba >= self.blocks {
                continue;
            }
            let dot = self.block_first_dot(pba)
                + DATA_AREA_FIRST_DOT as u64
                + (offset as u64 % DATA_AREA_DOTS as u64);
            // Heated dots cannot rot by magnetic decay — write_mag on
            // them is refused, which is exactly the physical model.
            if let Some(bit) = self.medium.state(dot).magnetic_bit() {
                self.medium.write_mag(dot, !bit);
                rotted += 1;
            }
        }
        let mut state = FaultState::new(plan);
        state.note_rotted(rotted);
        self.faults = Some(state);
    }

    /// Disarms fault injection. Already-applied bit rot stays on the
    /// medium (flips are physical, not scheduled).
    pub fn disarm_faults(&mut self) {
        self.faults = None;
    }

    /// The armed plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(FaultState::plan)
    }

    /// Counters of injected faults since the current plan was armed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(FaultState::stats)
    }

    /// First dot index of block `pba`.
    pub fn block_first_dot(&self, pba: u64) -> u64 {
        pba * SECTOR_DOTS as u64
    }

    /// Dot index of the `cell`-th Manchester cell in block `pba`'s
    /// electrical area (each cell is two dots).
    pub fn electrical_cell_dot(&self, pba: u64, cell: usize) -> u64 {
        self.block_first_dot(pba) + DATA_AREA_FIRST_DOT as u64 + (cell * 2) as u64
    }

    pub(crate) fn check_pba(&self, pba: u64) -> Result<(), SectorError> {
        if pba >= self.blocks {
            Err(SectorError::OutOfRange {
                pba,
                blocks: self.blocks,
            })
        } else {
            Ok(())
        }
    }

    pub(crate) fn seek_block(&mut self, pba: u64) {
        let ns = self.actuator.seek(pba as u32, 0);
        self.clock.advance(ns);
        self.counters.seeks += 1;
        let stall = self.faults.as_mut().map_or(0, FaultState::on_seek);
        if stall > 0 {
            self.clock.advance(stall);
        }
    }

    /// Streams the sled forward from its current row to block `pba`'s track
    /// without settling (the sled keeps moving), advancing the clock by the
    /// swept distance. Falls back to a full seek when `pba` is behind the
    /// current position. Extent scans over scattered-but-ascending targets
    /// use this between blocks.
    pub(crate) fn stream_to_block(&mut self, pba: u64) {
        let (row, _) = self.actuator.position();
        let target = pba as u32;
        if target >= row {
            let ns = self.actuator.stream_rows((target - row) as u64);
            self.clock.advance(ns);
        } else {
            self.seek_block(pba);
        }
    }

    /// The block whose track the sled currently rests on. Schedulers use
    /// this to order pending work by seek distance (e.g. the background
    /// scrub picks the registered line nearest the sled, so its slices
    /// neither pay a cross-device seek nor strand the foreground far from
    /// its working set).
    pub fn position_block(&self) -> u64 {
        self.actuator.position().0 as u64
    }

    /// Parks the sled at block `pba`'s track free of charge — not a seek,
    /// but the model of a controller whose resting position is already
    /// inside its assigned region (a scrub worker starts each pass parked
    /// at its shard's first track).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range addresses — parking is controller setup, not
    /// device I/O, so a bad address is a caller bug.
    pub fn park_at(&mut self, pba: u64) {
        assert!(
            pba < self.blocks,
            "park_at({pba}) beyond the {} block device",
            self.blocks
        );
        self.actuator.park_at(pba as u32, 0);
    }

    /// Batch cost of `ops` identical bit operations spread over the probe
    /// array.
    fn parallel_cost(&self, ops: u64, per_op_ns: u64) -> u64 {
        ops.div_ceil(self.probes as u64) * per_op_ns
    }

    // --- raw (unclocked) primitives -------------------------------------

    /// Hard-decision read: weak signals force a coin flip, reproducing
    /// Figure 2's "more or less random result" for heated dots.
    fn read_bit_raw(&mut self, dot: u64) -> (bool, bool) {
        self.read_state_raw(self.medium.state(dot))
    }

    /// [`ProbeDevice::read_bit_raw`] of a dot whose state was already read.
    fn read_state_raw(&mut self, state: DotState) -> (bool, bool) {
        match self.channel.detect_state(state, &mut self.rng) {
            Detection::One => (true, false),
            Detection::Zero => (false, false),
            Detection::Weak => (self.rng.random(), true),
        }
    }

    fn erb_raw(&mut self, dot: u64) -> DotProbe {
        let before = self.medium.state(dot);
        let mut state = before;
        let probe = self.erb_state(&mut state);
        if state != before {
            self.medium.write_mag(dot, state == DotState::Up);
        }
        probe
    }

    /// §3's atomic five-step sequence on a dot whose state the caller
    /// holds: the protocol's magnetic writes land in `state`, and the
    /// caller stores it back if it changed. Any weak signal or failed
    /// verification marks the dot heated; the double inversion restores
    /// the original data on intact dots, so the store is usually elided.
    fn erb_state(&mut self, state: &mut DotState) -> DotProbe {
        let write = |state: &mut DotState, bit: bool| {
            if !state.is_heated() {
                *state = DotState::magnetised(bit);
            }
        };
        let (d1, weak1) = self.read_state_raw(*state);
        if weak1 {
            return DotProbe::Heated;
        }
        write(state, !d1);
        let (d2, weak2) = self.read_state_raw(*state);
        if weak2 || d2 == d1 {
            write(state, d1);
            return DotProbe::Heated;
        }
        write(state, d1);
        let (d3, weak3) = self.read_state_raw(*state);
        if weak3 || d3 != d1 {
            return DotProbe::Heated;
        }
        DotProbe::Unheated { bit: d1 }
    }

    // --- public bit operations ------------------------------------------

    /// Magnetic read bit (`mrb`).
    pub fn mrb(&mut self, dot: u64) -> bool {
        self.clock.advance(self.cost.mrb_ns);
        self.counters.mrb += 1;
        self.read_bit_raw(dot).0
    }

    /// Magnetic write bit (`mwb`). Returns whether the write took (heated
    /// dots silently refuse, per Figure 2).
    pub fn mwb(&mut self, dot: u64, bit: bool) -> bool {
        self.clock.advance(self.cost.t_mwb_ns);
        self.counters.mwb += 1;
        self.medium.write_mag(dot, bit)
    }

    /// Electrical write bit (`ewb`): heat the dot irreversibly, with
    /// thermal side effects on neighbours.
    pub fn ewb(&mut self, dot: u64) -> sero_media::thermal::HeatOutcome {
        self.clock.advance(self.cost.t_ewb_ns);
        self.counters.ewb += 1;
        self.thermal.heat_dot(&mut self.medium, dot, &mut self.rng)
    }

    /// Electrical read bit (`erb`): the five-step protocol. Costs five
    /// magnetic bit times.
    pub fn erb(&mut self, dot: u64) -> DotProbe {
        self.clock.advance(self.cost.erb_ns());
        self.counters.erb += 1;
        self.counters.mrb += 3;
        self.counters.mwb += 2;
        self.erb_raw(dot)
    }

    /// Direct in-plane heat read — one bit time instead of five, but only
    /// on elliptic-dot media (§3's "read the in-plane magnetic signal
    /// directly"). Returns `None` on circular media.
    pub fn erb_direct(&mut self, dot: u64) -> Option<bool> {
        let heated = self
            .channel
            .sense_heat_in_plane(&self.medium, dot, &mut self.rng)?;
        self.clock.advance(self.cost.mrb_ns);
        self.counters.erb += 1;
        self.counters.mrb += 1;
        Some(heated)
    }

    /// Electrical sector read via direct in-plane sensing — the fast-path
    /// `ers` for elliptic media, ~5× cheaper than the protocol variant.
    ///
    /// # Errors
    ///
    /// [`SectorError::OutOfRange`] for bad addresses;
    /// [`SectorError::WriteBlocked`] is never returned here. On circular
    /// media this falls back to the five-step [`ProbeDevice::ers`].
    pub fn ers_direct(&mut self, pba: u64) -> Result<Scan, SectorError> {
        if self.medium.shape() != DotShape::Elliptic {
            return self.ers(pba);
        }
        self.check_pba(pba)?;
        self.seek_block(pba);
        let base = self.block_first_dot(pba) + DATA_AREA_FIRST_DOT as u64;
        let mut heat_flags = Vec::with_capacity(DATA_AREA_DOTS);
        for offset in 0..DATA_AREA_DOTS {
            let heated = self
                .channel
                .sense_heat_in_plane(&self.medium, base + offset as u64, &mut self.rng)
                .expect("shape checked above");
            heat_flags.push(heated);
        }
        let ns = self.parallel_cost(DATA_AREA_DOTS as u64, self.cost.mrb_ns);
        self.clock.advance(ns);
        self.counters.mrb += DATA_AREA_DOTS as u64;
        self.counters.erb += DATA_AREA_DOTS as u64;
        self.counters.ers += 1;
        Ok(manchester::decode(&heat_flags))
    }

    // --- sector operations ------------------------------------------------

    /// Magnetic read sector (`mrs`).
    ///
    /// # Errors
    ///
    /// Propagates [`SectorError`] for out-of-range addresses, uncorrectable
    /// ECC damage, CRC mismatches, and header/address mismatches.
    pub fn mrs(&mut self, pba: u64) -> Result<DecodedSector, SectorError> {
        self.check_pba(pba)?;
        self.seek_block(pba);
        self.read_sector_here(pba)
    }

    /// Reads and decodes the sector under the current sled position,
    /// advancing the clock and counters but paying no seek. Extent reads
    /// stream over this after a single head-of-range seek.
    pub(crate) fn read_sector_here(&mut self, pba: u64) -> Result<DecodedSector, SectorError> {
        let mut states = [DotState::Down; SECTOR_DOTS];
        self.medium
            .read_states(self.block_first_dot(pba), &mut states);

        // Detection stays per dot and in dot order, so the channel RNG
        // stream is the one a per-dot read would draw.
        let mut raw = vec![0u8; SECTOR_TOTAL_BYTES];
        let mut erased = Vec::new();
        for ((byte_idx, slot), dots) in raw.iter_mut().enumerate().zip(states.chunks_exact(8)) {
            let mut byte = 0u8;
            let mut weak = false;
            for (bit, &state) in dots.iter().enumerate() {
                let (b, w) = self.read_state_raw(state);
                if b {
                    byte |= 1 << (7 - bit);
                }
                weak |= w;
            }
            *slot = byte;
            if weak {
                erased.push(byte_idx);
            }
        }

        let ns = self.parallel_cost(SECTOR_DOTS as u64, self.cost.mrb_ns);
        self.clock.advance(ns);
        self.counters.mrb += SECTOR_DOTS as u64;
        self.counters.mrs += 1;
        // Fault injection sits after the physical read so the clock,
        // counters, and channel RNG advance exactly as on a fault-free
        // twin; only the decoded result is withheld.
        if let Some(err) = self.faults.as_mut().and_then(|f| f.on_read(pba)) {
            return Err(err);
        }
        self.codec.decode(pba, &raw, &erased)
    }

    /// Magnetic write sector (`mws`) with flags 0.
    ///
    /// # Errors
    ///
    /// Returns [`SectorError::OutOfRange`] for bad addresses. Heated dots
    /// in the footprint refuse the write; the count is reported so callers
    /// can treat damaged blocks as suspicious rather than silently relying
    /// on ECC.
    pub fn mws(
        &mut self,
        pba: u64,
        data: &[u8; SECTOR_DATA_BYTES],
    ) -> Result<WriteReport, SectorError> {
        self.mws_with_flags(pba, 0, data)
    }

    /// Magnetic write sector carrying header `flags`.
    ///
    /// # Errors
    ///
    /// Returns [`SectorError::OutOfRange`] for bad addresses.
    pub fn mws_with_flags(
        &mut self,
        pba: u64,
        flags: u16,
        data: &[u8; SECTOR_DATA_BYTES],
    ) -> Result<WriteReport, SectorError> {
        self.check_pba(pba)?;
        self.seek_block(pba);
        Ok(self.write_sector_here(pba, flags, data))
    }

    /// Encodes and writes the sector under the current sled position,
    /// advancing the clock and counters but paying no seek.
    pub(crate) fn write_sector_here(
        &mut self,
        pba: u64,
        flags: u16,
        data: &[u8; SECTOR_DATA_BYTES],
    ) -> WriteReport {
        let raw = self.codec.encode_with_flags(pba, flags, data);
        let first = self.block_first_dot(pba);

        let mut bits = [false; SECTOR_DOTS];
        for (dots, &byte) in bits.chunks_exact_mut(8).zip(raw.iter()) {
            for (bit, dot) in dots.iter_mut().enumerate() {
                *dot = (byte >> (7 - bit)) & 1 == 1;
            }
        }
        let unwritable = self.medium.write_mag_run(first, &bits[..raw.len() * 8]) as usize;

        let ns = self.parallel_cost(SECTOR_DOTS as u64, self.cost.t_mwb_ns);
        self.clock.advance(ns);
        self.counters.mwb += SECTOR_DOTS as u64;
        self.counters.mws += 1;
        // Injected write faults are phantom unwritable dots: the data
        // landed on the medium, but the report claims heat damage — the
        // same signal real stuck-at dots produce.
        let phantom = self
            .faults
            .as_mut()
            .map_or(0, |faults| faults.on_write(pba));
        WriteReport {
            unwritable_dots: unwritable + phantom,
        }
    }

    /// Electrical write sector (`ews`): burn `bits` into the block's
    /// electrical area as Manchester cells.
    ///
    /// Heating is power-limited to one tip at a time, so the cost is one
    /// heat pulse per `1` dot — this is why the paper heats a *line* by
    /// writing only a hash, not the data.
    ///
    /// # Errors
    ///
    /// [`SectorError::OutOfRange`] for bad addresses. Writing more bits
    /// than [`ELECTRICAL_CELLS`] panics — it is a caller bug, not a device
    /// condition.
    ///
    /// # Panics
    ///
    /// Panics when `bits.len() > ELECTRICAL_CELLS`.
    pub fn ews(&mut self, pba: u64, bits: &[bool]) -> Result<EwsReport, SectorError> {
        self.check_pba(pba)?;
        self.seek_block(pba);
        Ok(self.ews_here(pba, bits))
    }

    /// Burns `bits` into the electrical area of the block under the current
    /// sled position, advancing the clock and counters but paying no seek.
    /// Batched electrical writes stream over this after a single
    /// head-of-range seek.
    pub(crate) fn ews_here(&mut self, pba: u64, bits: &[bool]) -> EwsReport {
        assert!(
            bits.len() <= ELECTRICAL_CELLS,
            "{} bits exceed the electrical area of {} cells",
            bits.len(),
            ELECTRICAL_CELLS
        );
        let base = self.block_first_dot(pba) + DATA_AREA_FIRST_DOT as u64;

        let dots = manchester::encode(bits.iter().copied());
        let mut report = EwsReport::default();
        for (offset, &heat) in dots.iter().enumerate() {
            if !heat {
                continue;
            }
            let outcome =
                self.thermal
                    .heat_dot(&mut self.medium, base + offset as u64, &mut self.rng);
            self.clock.advance(self.cost.t_ewb_ns);
            self.counters.ewb += 1;
            if outcome.target_heated {
                report.heated_dots += 1;
            }
            report
                .collateral_destroyed
                .extend(outcome.destroyed_neighbours);
            report.disturbed.extend(outcome.disturbed_neighbours);
        }
        self.counters.ews += 1;
        report
    }

    /// Electrical read sector (`ers`): probe the electrical area with `erb`
    /// and decode the Manchester cells.
    ///
    /// # Errors
    ///
    /// [`SectorError::OutOfRange`] for bad addresses. Tamper findings are
    /// *data* (in the returned [`Scan`]), never errors.
    pub fn ers(&mut self, pba: u64) -> Result<Scan, SectorError> {
        self.ers_cells(pba, ELECTRICAL_CELLS)
    }

    /// Physical shred (§8 "Deletion"): heat *every* dot of the block's
    /// footprint, irreversibly destroying its contents. The paper proposes
    /// this as the retention-control mechanism "similar to what has been
    /// achieved for optical storage".
    ///
    /// Shredding is deliberately the most expensive operation on the
    /// device — one power-limited heat pulse per dot — and leaves an
    /// unmistakable signature: every Manchester cell reads `HH`.
    ///
    /// # Errors
    ///
    /// [`SectorError::OutOfRange`] for bad addresses.
    pub fn shred(&mut self, pba: u64) -> Result<EwsReport, SectorError> {
        self.check_pba(pba)?;
        self.seek_block(pba);
        let first = self.block_first_dot(pba);
        let mut report = EwsReport::default();
        for offset in 0..SECTOR_DOTS as u64 {
            let outcome = self
                .thermal
                .heat_dot(&mut self.medium, first + offset, &mut self.rng);
            self.clock.advance(self.cost.t_ewb_ns);
            self.counters.ewb += 1;
            if outcome.target_heated {
                report.heated_dots += 1;
            }
            report
                .collateral_destroyed
                .extend(outcome.destroyed_neighbours);
            report.disturbed.extend(outcome.disturbed_neighbours);
        }
        Ok(report)
    }

    /// Electrical read of only the first `cells` Manchester cells of the
    /// block — the cheap probe used by registry scans: hash payloads are
    /// prefix-contiguous, so a blank prefix means a blank block at a
    /// fraction of the full `ers` cost.
    ///
    /// # Errors
    ///
    /// [`SectorError::OutOfRange`] for bad addresses.
    ///
    /// # Panics
    ///
    /// Panics when `cells` exceeds [`ELECTRICAL_CELLS`].
    pub fn ers_cells(&mut self, pba: u64, cells: usize) -> Result<Scan, SectorError> {
        self.check_pba(pba)?;
        self.seek_block(pba);
        Ok(self.ers_cells_here(pba, cells))
    }

    /// Probes the first `cells` Manchester cells of the block under the
    /// current sled position, advancing the clock and counters but paying
    /// no seek. Batched electrical scans stream over this after a single
    /// head-of-range seek.
    pub(crate) fn ers_cells_here(&mut self, pba: u64, cells: usize) -> Scan {
        assert!(
            cells <= ELECTRICAL_CELLS,
            "at most {ELECTRICAL_CELLS} cells per block"
        );
        let base = self.block_first_dot(pba) + DATA_AREA_FIRST_DOT as u64;
        let dots = cells * 2;

        // Each dot's `erb` touches only that dot, so probing a snapshot of
        // the run in dot order draws the same channel RNG stream as probing
        // the medium dot by dot. The inversions restore the data, so the
        // run is stored back only if a misread left a dot changed.
        let mut states = [DotState::Down; DATA_AREA_DOTS];
        let states = &mut states[..dots];
        self.medium.read_states(base, states);
        let mut heat_flags = Vec::with_capacity(dots);
        let mut changed = false;
        for state in states.iter_mut() {
            let before = *state;
            heat_flags.push(self.erb_state(state).is_heated());
            changed |= *state != before;
        }
        if changed {
            let mut bits = [false; DATA_AREA_DOTS];
            for (bit, state) in bits.iter_mut().zip(states.iter()) {
                *bit = *state == DotState::Up;
            }
            self.medium.write_mag_run(base, &bits[..dots]);
        }

        let ns = self.parallel_cost(dots as u64, self.cost.erb_ns());
        self.clock.advance(ns);
        self.counters.erb += dots as u64;
        self.counters.mrb += 3 * dots as u64;
        self.counters.mwb += 2 * dots as u64;
        self.counters.ers += 1;
        manchester::decode(&heat_flags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use sero_codec::manchester::Cell;

    fn device(blocks: u64) -> ProbeDevice {
        ProbeDevice::builder().blocks(blocks).build()
    }

    fn payload(seed: u8) -> [u8; SECTOR_DATA_BYTES] {
        let mut d = [0u8; SECTOR_DATA_BYTES];
        for (i, b) in d.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(13).wrapping_add(seed);
        }
        d
    }

    #[test]
    fn sector_write_read_round_trip() {
        let mut dev = device(8);
        for pba in 0..8 {
            let data = payload(pba as u8);
            let report = dev.mws(pba, &data).unwrap();
            assert_eq!(report.unwritable_dots, 0);
            assert_eq!(dev.mrs(pba).unwrap().data, data);
        }
    }

    #[test]
    fn unformatted_block_errors() {
        let mut dev = device(4);
        assert!(dev.mrs(2).is_err());
    }

    #[test]
    fn out_of_range_rejected() {
        let mut dev = device(4);
        assert!(matches!(
            dev.mrs(4),
            Err(SectorError::OutOfRange { pba: 4, blocks: 4 })
        ));
        assert!(dev.mws(9, &payload(0)).is_err());
        assert!(dev.ews(9, &[true]).is_err());
        assert!(dev.ers(9).is_err());
    }

    #[test]
    fn erb_classifies_unheated_and_restores() {
        let mut dev = device(2);
        let dot = dev.block_first_dot(1) + 5;
        dev.mwb(dot, true);
        match dev.erb(dot) {
            DotProbe::Unheated { bit } => assert!(bit),
            DotProbe::Heated => panic!("intact dot misclassified"),
        }
        // The double inversion restored the original value.
        assert!(dev.mrb(dot));
    }

    #[test]
    fn erb_detects_heated_dots() {
        let mut dev = device(2);
        let dot = dev.block_first_dot(1) + 7;
        dev.ewb(dot);
        let detected = (0..100).filter(|_| dev.erb(dot).is_heated()).count();
        assert!(detected >= 99, "erb detected {detected}/100");
    }

    #[test]
    fn ers_equals_erb_per_dot_on_a_noisy_channel() {
        // At σ = 0.8 some first reads misread without going weak, so the
        // protocol leaves those dots changed and `ers` must store them.
        let mut stored = false;
        for seed in 0..4 {
            let mut dev = ProbeDevice::builder()
                .blocks(4)
                .channel(ReadChannel::new(1.0, 0.8, 0.08, 0.5))
                .seed(seed)
                .build();
            dev.mws(2, &payload(seed as u8)).unwrap();
            let bits: Vec<bool> = (0..256).map(|i| i % 3 == 0).collect();
            dev.ews(2, &bits).unwrap();
            let before = dev.medium().clone();
            let mut per_dot = dev.clone();

            let scan = dev.ers(2).unwrap();
            let base = per_dot.block_first_dot(2) + DATA_AREA_FIRST_DOT as u64;
            let flags: Vec<bool> = (0..DATA_AREA_DOTS as u64)
                .map(|offset| per_dot.erb(base + offset).is_heated())
                .collect();
            assert_eq!(scan, manchester::decode(&flags));
            assert_eq!(dev.medium(), per_dot.medium());
            assert_eq!(dev.rng.next_u64(), per_dot.rng.next_u64());
            stored |= dev.medium() != &before;
        }
        assert!(stored, "no misread changed a dot; raise the noise");
    }

    #[test]
    fn erb_is_five_times_mrb() {
        let mut dev = device(2);
        dev.mwb(0, false);
        let before = dev.clock().elapsed_ns();
        dev.erb(0);
        let erb_time = dev.clock().elapsed_ns() - before;
        let before = dev.clock().elapsed_ns();
        dev.mrb(0);
        let mrb_time = dev.clock().elapsed_ns() - before;
        assert_eq!(erb_time, 5 * mrb_time, "paper: erb at least 5x mrb");
    }

    #[test]
    fn ews_then_ers_round_trips_manchester() {
        let mut dev = device(4);
        let bits: Vec<bool> = (0..256).map(|i| i % 3 == 0).collect();
        let report = dev.ews(2, &bits).unwrap();
        assert_eq!(report.heated_dots, 256, "one heated dot per cell");
        let scan = dev.ers(2).unwrap();
        assert_eq!(scan.cells().len(), ELECTRICAL_CELLS);
        let decoded: Vec<bool> = scan.cells()[..256]
            .iter()
            .map(|c| c.value().expect("written cells are clean"))
            .collect();
        assert_eq!(decoded, bits);
        // Cells past the written prefix are blank.
        assert!(scan.cells()[256..].iter().all(|c| *c == Cell::Blank));
    }

    #[test]
    fn ews_is_idempotent_for_same_bits() {
        // §3: re-heating a line with invariant block-0 data is harmless.
        let mut dev = device(4);
        let bits = vec![true, false, true, true];
        dev.ews(1, &bits).unwrap();
        let second = dev.ews(1, &bits).unwrap();
        assert_eq!(second.heated_dots, 0, "no dot newly heated");
        let scan = dev.ers(1).unwrap();
        assert!(scan.tampered_cells().is_empty());
    }

    #[test]
    fn conflicting_ews_produces_hh_evidence() {
        // §3/§5.1: heating different data into a written cell turns it HH.
        let mut dev = device(4);
        dev.ews(1, &[true, false]).unwrap();
        dev.ews(1, &[false, true]).unwrap();
        let scan = dev.ers(1).unwrap();
        assert_eq!(scan.tampered_cells(), vec![0, 1]);
    }

    #[test]
    fn magnetic_write_over_heated_hash_reports_unwritable() {
        let mut dev = device(4);
        dev.ews(1, &[true; 64]).unwrap();
        let report = dev.mws(1, &payload(1)).unwrap();
        assert_eq!(report.unwritable_dots, 64, "one H per written cell refuses");
    }

    #[test]
    fn few_heated_dots_corrected_as_erasures_on_read() {
        // §5.1: "an electrically written bit in the data ... appears as a
        // read error" — and the sector ECC absorbs a handful of them.
        let mut dev = device(4);
        let data = payload(2);
        dev.mws(1, &data).unwrap();
        // Vandalise 6 dots in distinct bytes of the data area.
        for k in 0..6 {
            let dot = dev.block_first_dot(1) + DATA_AREA_FIRST_DOT as u64 + (k * 64) as u64;
            dev.ewb(dot);
        }
        let sector = dev.mrs(1).unwrap();
        assert_eq!(sector.data, data, "ECC must repair isolated heat damage");
        assert!(sector.erased_bytes >= 6);
    }

    #[test]
    fn sequential_access_is_cheaper_than_random() {
        let mut a = device(256);
        let data = payload(3);
        for pba in 0..64 {
            a.mws(pba, &data).unwrap();
        }
        let seq_time = {
            let start = a.clock().elapsed_ns();
            for pba in 0..64 {
                a.mrs(pba).unwrap();
            }
            a.clock().elapsed_ns() - start
        };
        let random_time = {
            let start = a.clock().elapsed_ns();
            for k in 0..64u64 {
                let pba = (k * 37) % 64;
                a.mrs(pba).unwrap();
            }
            a.clock().elapsed_ns() - start
        };
        assert!(
            random_time > seq_time,
            "random {random_time} vs seq {seq_time}"
        );
    }

    #[test]
    fn counters_track_sector_ops() {
        let mut dev = device(4);
        dev.mws(0, &payload(4)).unwrap();
        dev.mrs(0).unwrap();
        dev.ews(1, &[true]).unwrap();
        dev.ers(1).unwrap();
        let c = dev.counters();
        assert_eq!((c.mws, c.mrs, c.ews, c.ers), (1, 1, 1, 1));
        assert!(c.mwb >= SECTOR_DOTS as u64);
        assert!(c.mrb >= SECTOR_DOTS as u64);
        assert_eq!(c.ewb, 1);
        assert!(c.erb >= DATA_AREA_DOTS as u64);
    }

    #[test]
    fn ews_slow_ers_5x_mrs() {
        // The headline timing relations of §3, measured on the clock.
        let mut dev = device(4);
        let data = payload(5);

        let t0 = dev.clock().elapsed_ns();
        dev.mws(0, &data).unwrap();
        let t_mws = dev.clock().elapsed_ns() - t0;

        let t0 = dev.clock().elapsed_ns();
        dev.mrs(0).unwrap();
        let t_mrs = dev.clock().elapsed_ns() - t0;

        let t0 = dev.clock().elapsed_ns();
        dev.ews(1, &[true; 256]).unwrap(); // a 256-bit hash
        let t_ews = dev.clock().elapsed_ns() - t0;

        let t0 = dev.clock().elapsed_ns();
        dev.ers(1).unwrap();
        let t_ers = dev.clock().elapsed_ns() - t0;

        assert!(
            t_ews > 10 * t_mws,
            "heating is much slower: {t_ews} vs {t_mws}"
        );
        assert!(
            t_ers >= 4 * t_mrs,
            "electrical sector read ≈ 5x magnetic (minus header area): {t_ers} vs {t_mrs}"
        );
    }

    #[test]
    fn elliptic_direct_read_matches_protocol_and_is_5x_faster() {
        let mut dev = ProbeDevice::builder()
            .blocks(4)
            .pitch_nm(150.0) // elliptic dots need the coarser pitch
            .elliptic_dots()
            .build();
        let bits: Vec<bool> = (0..200).map(|i| i % 5 == 0).collect();
        dev.ews(1, &bits).unwrap();

        let t0 = dev.clock().elapsed_ns();
        let protocol = dev.ers(1).unwrap();
        let t_protocol = dev.clock().elapsed_ns() - t0;

        let t0 = dev.clock().elapsed_ns();
        let direct = dev.ers_direct(1).unwrap();
        let t_direct = dev.clock().elapsed_ns() - t0;

        assert_eq!(protocol, direct, "both reads agree");
        assert!(
            t_protocol >= 5 * t_direct,
            "direct {t_direct} vs protocol {t_protocol}"
        );
    }

    #[test]
    fn circular_medium_has_no_direct_read() {
        let mut dev = device(2);
        assert_eq!(dev.erb_direct(0), None);
        // ers_direct falls back to the protocol path and still works.
        dev.ews(1, &[true, false]).unwrap();
        let scan = dev.ers_direct(1).unwrap();
        assert!(scan.tampered_cells().is_empty());
    }

    #[test]
    fn medium_access_for_forensics() {
        let mut dev = device(2);
        dev.ews(0, &[true]).unwrap();
        let first_heated = dev.medium().heated_in(0..dev.block_first_dot(1)).len();
        assert_eq!(first_heated, 1);
    }

    #[test]
    #[should_panic(expected = "exceed the electrical area")]
    fn oversized_ews_panics() {
        let mut dev = device(2);
        let bits = vec![true; ELECTRICAL_CELLS + 1];
        let _ = dev.ews(0, &bits);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_panics() {
        ProbeDevice::builder().blocks(0).build();
    }
}
