//! Programs that can cross the wire: a spec codec (so the worker can
//! rebuild the program from [`SetupFrame::spec`](crate::wire::SetupFrame))
//! plus a register codec (so region/halo/patch/interior payloads stay opaque
//! to the frame layer), and the two halves of a [`RegisterDelta`]'s life that
//! need that codec: [`encode_delta`] lists registers of a region,
//! [`stage_delta`] checks a received list against the region it is for.
//!
//! The stock engine workloads ([`MinIdFlood`], [`MonitorFlood`],
//! [`AlarmedFlood`]) all implement it; `crate::install_stock()` registers
//! their remote execution paths with the engine. A custom program joins
//! the wire by implementing [`WireProgram`], adding a dispatch arm in the
//! worker (`crate::worker`), and calling `crate::install::<P>()` in the
//! coordinator process.

use crate::wire::{Dec, DeltaIndex, RegisterDelta, WireError};
use smst_engine::programs::{AlarmedFlood, MinIdFlood, MonitorFlood};
use smst_sim::NodeProgram;

/// A [`NodeProgram`] with a wire codec: the spec (program parameters) and
/// the per-node register both encode to the workspace's hand-rolled
/// little-endian format. Registers are comparable (`State: PartialEq`):
/// each round ships the registers that **changed**, and "changed" is
/// `next != prev` on the values. `'static` because the coordinator-side
/// registry is keyed by `TypeId`.
pub trait WireProgram: NodeProgram<State: PartialEq> + Sync + Sized + 'static {
    /// The stable program name carried in
    /// [`SetupFrame::program`](crate::wire::SetupFrame::program) — the
    /// worker's dispatch key. Matches [`NodeProgram::name`].
    const WIRE_NAME: &'static str;

    /// Encodes the program parameters.
    fn encode_spec(&self, out: &mut Vec<u8>);

    /// Rebuilds the program from its encoded parameters.
    fn decode_spec(dec: &mut Dec<'_>) -> Result<Self, WireError>;

    /// Encodes one register.
    fn encode_state(state: &Self::State, out: &mut Vec<u8>);

    /// Decodes one register.
    fn decode_state(dec: &mut Dec<'_>) -> Result<Self::State, WireError>;
}

/// Encodes a register sequence back-to-back (the count travels out of
/// band — the setup frame's is its region length).
pub fn encode_states<'a, P, I>(states: I) -> Vec<u8>
where
    P: WireProgram,
    P::State: 'a,
    I: IntoIterator<Item = &'a P::State>,
{
    let mut out = Vec::new();
    for state in states {
        P::encode_state(state, &mut out);
    }
    out
}

/// Decodes exactly `count` registers; the payload must be an exact fit
/// (trailing bytes are a framing bug, surfaced as
/// [`WireError::Trailing`]). `count` may be a number a peer announced:
/// nothing is reserved beyond what `bytes` can hold.
pub fn decode_states<P: WireProgram>(
    bytes: &[u8],
    count: usize,
) -> Result<Vec<P::State>, WireError> {
    let mut dec = Dec::new(bytes);
    let mut states = Vec::with_capacity(count.min(bytes.len()));
    for _ in 0..count {
        states.push(P::decode_state(&mut dec)?);
    }
    dec.finish()?;
    Ok(states)
}

/// The delta listing `listed` — `(region index, register)` pairs,
/// strictly ascending — of a region of `region_len` registers. Listing
/// every register yields [`DeltaIndex::All`]: the index form is a property
/// of the set, not a choice of the caller.
pub fn encode_delta<'a, P, I>(region_len: usize, listed: I) -> RegisterDelta
where
    P: WireProgram,
    P::State: 'a,
    I: IntoIterator<Item = (u32, &'a P::State)>,
{
    let mut indices = Vec::new();
    let mut states = Vec::new();
    for (index, state) in listed {
        indices.push(index);
        P::encode_state(state, &mut states);
    }
    let index = if indices.len() == region_len {
        DeltaIndex::All
    } else {
        DeltaIndex::Listed(indices)
    };
    RegisterDelta { index, states }
}

/// A [`RegisterDelta`] checked against the region it is for and decoded:
/// every index in range and strictly ascending, exactly one register per
/// index. Only [`stage_delta`] makes one, so applying it cannot fail
/// half-way.
#[derive(Debug)]
pub struct StagedDelta<S> {
    index: DeltaIndex,
    states: Vec<S>,
}

impl<S> StagedDelta<S> {
    /// How many registers the delta lists.
    pub fn count(&self) -> usize {
        self.states.len()
    }

    /// Hands every listed `(region index, register)` pair to `f`,
    /// ascending.
    pub fn for_each(self, mut f: impl FnMut(usize, S)) {
        match self.index {
            DeltaIndex::All => self
                .states
                .into_iter()
                .enumerate()
                .for_each(|(index, state)| f(index, state)),
            DeltaIndex::Listed(indices) => indices
                .into_iter()
                .zip(self.states)
                .for_each(|(index, state)| f(index as usize, state)),
        }
    }

    /// Writes the listed registers into `region` (the one the delta was
    /// staged against).
    pub fn apply(self, region: &mut [S]) {
        self.for_each(|index, state| region[index] = state);
    }
}

/// Validates `delta` against a region of `region_len` registers and
/// decodes its registers. An index `>= region_len`, a non-ascending or
/// duplicate index is [`WireError::BadValue`]; a payload that does not
/// hold exactly one register per listed index is
/// [`WireError::Truncated`] / [`WireError::Trailing`].
pub fn stage_delta<P: WireProgram>(
    delta: RegisterDelta,
    region_len: usize,
) -> Result<StagedDelta<P::State>, WireError> {
    let count = match &delta.index {
        DeltaIndex::All => region_len,
        DeltaIndex::Listed(indices) => {
            let mut floor = 0u64;
            for &index in indices {
                if u64::from(index) < floor {
                    return Err(WireError::BadValue(
                        "delta indices must be strictly ascending",
                    ));
                }
                floor = u64::from(index) + 1;
            }
            if floor > region_len as u64 {
                return Err(WireError::BadValue("delta index out of range"));
            }
            indices.len()
        }
    };
    Ok(StagedDelta {
        states: decode_states::<P>(&delta.states, count)?,
        index: delta.index,
    })
}

impl WireProgram for MinIdFlood {
    const WIRE_NAME: &'static str = "min-id-flood";

    fn encode_spec(&self, out: &mut Vec<u8>) {
        crate::wire::put_u64(out, self.leader());
    }

    fn decode_spec(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(MinIdFlood::new(dec.u64()?))
    }

    fn encode_state(state: &u64, out: &mut Vec<u8>) {
        crate::wire::put_u64(out, *state);
    }

    fn decode_state(dec: &mut Dec<'_>) -> Result<u64, WireError> {
        dec.u64()
    }
}

impl WireProgram for MonitorFlood {
    const WIRE_NAME: &'static str = "monitor-flood";

    fn encode_spec(&self, out: &mut Vec<u8>) {
        crate::wire::put_u64(out, self.monitor());
        crate::wire::put_u64(out, self.ceiling());
    }

    fn decode_spec(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        let monitor = dec.u64()?;
        let ceiling = dec.u64()?;
        Ok(MonitorFlood::new(monitor, ceiling))
    }

    fn encode_state(state: &u64, out: &mut Vec<u8>) {
        crate::wire::put_u64(out, *state);
    }

    fn decode_state(dec: &mut Dec<'_>) -> Result<u64, WireError> {
        dec.u64()
    }
}

impl WireProgram for AlarmedFlood {
    const WIRE_NAME: &'static str = "alarmed-flood";

    fn encode_spec(&self, out: &mut Vec<u8>) {
        crate::wire::put_u64(out, self.monitor());
        crate::wire::put_u64(out, self.ceiling());
    }

    fn decode_spec(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        let monitor = dec.u64()?;
        let ceiling = dec.u64()?;
        Ok(AlarmedFlood::new(monitor, ceiling))
    }

    fn encode_state(state: &u64, out: &mut Vec<u8>) {
        crate::wire::put_u64(out, *state);
    }

    fn decode_state(dec: &mut Dec<'_>) -> Result<u64, WireError> {
        dec.u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_wire_names_match_the_program_names() {
        assert_eq!(MinIdFlood::new(0).name(), MinIdFlood::WIRE_NAME);
        assert_eq!(MonitorFlood::new(0, 9).name(), MonitorFlood::WIRE_NAME);
        assert_eq!(AlarmedFlood::new(0, 9).name(), AlarmedFlood::WIRE_NAME);
    }

    #[test]
    fn specs_round_trip() {
        let mut buf = Vec::new();
        AlarmedFlood::new(7, 99).encode_spec(&mut buf);
        let decoded = AlarmedFlood::decode_spec(&mut Dec::new(&buf)).unwrap();
        assert_eq!(decoded.monitor(), 7);
        assert_eq!(decoded.ceiling(), 99);
    }

    #[test]
    fn state_sequences_round_trip_exactly() {
        let states = [3u64, u64::MAX, 0, 42];
        let bytes = encode_states::<MinIdFlood, _>(states.iter());
        assert_eq!(decode_states::<MinIdFlood>(&bytes, 4).unwrap(), states);
        // short payload is Truncated, long payload is Trailing
        assert!(matches!(
            decode_states::<MinIdFlood>(&bytes, 5),
            Err(WireError::Truncated)
        ));
        assert!(matches!(
            decode_states::<MinIdFlood>(&bytes, 3),
            Err(WireError::Trailing { extra: 8 })
        ));
    }
}
