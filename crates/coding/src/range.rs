//! Byte-oriented arithmetic (range) coder with suspendable encoder state.
//!
//! This is the coding engine at the heart of Dophy. The design follows the
//! classic carry-propagating range coder used by LZMA: a 32-bit `range`, a
//! 33-bit `low` accumulator whose carry is resolved through a one-byte cache,
//! and renormalisation whenever `range` drops below 2^24.
//!
//! Two properties matter for the Dophy use case:
//!
//! 1. **Incremental, hop-by-hop encoding.** In Dophy every forwarder appends
//!    symbols to the arithmetic stream carried inside the data packet and the
//!    stream is only *finished* (flushed) at the sink. The encoder therefore
//!    exposes its internal state as a small POD ([`EncoderState`]) that rides
//!    in the packet header next to the emitted bytes, so encoding can be
//!    suspended at one node and resumed at the next.
//! 2. **Multi-context coding.** Each [`encode`](RangeEncoder::encode) call
//!    takes an explicit `(cum, freq, total)` triple, so callers may interleave
//!    symbols from different probability models (Dophy interleaves a
//!    next-hop-index context and a retransmission-count context) as long as
//!    the decoder consults the same models in the same order.
//!
//! The coder is exact: for any sequence of `(cum, freq, total)` triples with
//! `freq >= 1`, `cum + freq <= total` and `total <= MAX_TOTAL`, decoding
//! reproduces the sequence bit-for-bit.

use serde::{Deserialize, Serialize};

/// Renormalisation threshold: the encoder keeps `range >= 2^24`.
pub const TOP: u32 = 1 << 24;

/// Maximum admissible model total. Keeping totals at or below 2^16 guarantees
/// `range / total >= 2^8` after renormalisation, so no symbol's sub-range
/// ever collapses to zero.
pub const MAX_TOTAL: u32 = 1 << 16;

/// Snapshot of an in-flight encoder, small enough to ride in a packet header.
///
/// `low` needs 33 bits between `encode` calls: a carry into bit 32 may be
/// pending until the next renormalisation resolves it. On the wire that is
/// 5 (low) + 4 (range) + 1 (cache) + 2 (cache_size) = 12 bytes; see
/// [`EncoderState::WIRE_SIZE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncoderState {
    /// Pending low bound of the current interval (33 significant bits).
    pub low: u64,
    /// Current interval width.
    pub range: u32,
    /// Byte withheld awaiting carry resolution.
    pub cache: u8,
    /// Number of withheld bytes (the cache byte plus a run of 0xFF bytes).
    pub cache_size: u16,
}

impl EncoderState {
    /// Bytes this state occupies in a packet header.
    pub const WIRE_SIZE: usize = 12;

    /// State of a freshly initialised encoder.
    pub fn fresh() -> Self {
        Self {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
        }
    }
}

impl Default for EncoderState {
    fn default() -> Self {
        Self::fresh()
    }
}

/// Errors surfaced by the range coder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeCodingError {
    /// A model handed the coder an invalid `(cum, freq, total)` triple.
    InvalidFrequencies {
        /// Cumulative frequency below the symbol.
        cum: u32,
        /// Symbol frequency.
        freq: u32,
        /// Model total.
        total: u32,
    },
    /// The decoder ran out of input bytes.
    UnexpectedEof,
    /// Encoder cache-run counter would overflow `u16` (pathological input;
    /// would require ~64 KiB of consecutive 0xFF output bytes).
    CacheOverflow,
}

impl std::fmt::Display for RangeCodingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidFrequencies { cum, freq, total } => write!(
                f,
                "invalid frequency triple: cum={cum} freq={freq} total={total}"
            ),
            Self::UnexpectedEof => write!(f, "range decoder ran out of input"),
            Self::CacheOverflow => write!(f, "encoder carry-cache overflow"),
        }
    }
}

impl std::error::Error for RangeCodingError {}

fn validate(cum: u32, freq: u32, total: u32) -> Result<(), RangeCodingError> {
    if freq == 0 || total == 0 || total > MAX_TOTAL || cum.saturating_add(freq) > total {
        Err(RangeCodingError::InvalidFrequencies { cum, freq, total })
    } else {
        Ok(())
    }
}

/// Carry-propagating range encoder.
///
/// Create with [`RangeEncoder::new`], feed symbols via
/// [`encode`](RangeEncoder::encode), and either [`finish`](RangeEncoder::finish)
/// the stream or [`suspend`](RangeEncoder::suspend) it for transport inside a
/// packet and later [`resume`](RangeEncoder::resume) it elsewhere.
#[derive(Debug, Clone)]
pub struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u16,
    out: Vec<u8>,
}

impl Default for RangeEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeEncoder {
    /// Creates a fresh encoder with an empty output buffer.
    pub fn new() -> Self {
        let s = EncoderState::fresh();
        Self {
            low: s.low,
            range: s.range,
            cache: s.cache,
            cache_size: s.cache_size,
            out: Vec::new(),
        }
    }

    /// Resumes encoding from a suspended state, appending emitted bytes to
    /// `out` (the bytes already carried in the packet).
    pub fn resume(state: EncoderState, out: Vec<u8>) -> Self {
        Self {
            low: state.low,
            range: state.range,
            cache: state.cache,
            cache_size: state.cache_size,
            out,
        }
    }

    /// Suspends the encoder, returning its state and the bytes emitted so far.
    pub fn suspend(self) -> (EncoderState, Vec<u8>) {
        debug_assert!(self.low < 1u64 << 33, "low exceeds 33 bits");
        (
            EncoderState {
                low: self.low,
                range: self.range,
                cache: self.cache,
                cache_size: self.cache_size,
            },
            self.out,
        )
    }

    /// Encodes one symbol occupying `[cum, cum + freq)` out of `total`.
    pub fn encode(&mut self, cum: u32, freq: u32, total: u32) -> Result<(), RangeCodingError> {
        validate(cum, freq, total)?;
        let r = self.range / total;
        self.low += u64::from(r) * u64::from(cum);
        self.range = r * freq;
        while self.range < TOP {
            self.range <<= 8;
            self.shift_low()?;
        }
        Ok(())
    }

    /// Encodes a value uniformly distributed in `0..n` (n <= MAX_TOTAL).
    ///
    /// Convenience for escape/refinement payloads that carry residuals with
    /// no learned model.
    pub fn encode_uniform(&mut self, value: u32, n: u32) -> Result<(), RangeCodingError> {
        self.encode(value, 1, n)
    }

    /// Flushes all pending state; the returned buffer is a complete,
    /// self-contained stream.
    pub fn finish(mut self) -> Result<Vec<u8>, RangeCodingError> {
        for _ in 0..5 {
            self.shift_low()?;
        }
        Ok(self.out)
    }

    /// Flushes with minimal-length termination and strips the redundancy a
    /// packet need not carry. Three savings over [`finish`](Self::finish):
    ///
    /// 1. the final code value is chosen as the number in the final
    ///    interval `[low, low + range)` with the most trailing zero bits
    ///    (any value in the interval decodes identically), so the tail is
    ///    mostly zero bytes;
    /// 2. trailing zero bytes are dropped — the decoder synthesizes zeros
    ///    past the end of its input;
    /// 3. the leading byte is dropped — the decoder's 32-bit code register
    ///    shifts the first byte out entirely, so its value never matters.
    ///
    /// Decode the result with [`RangeDecoder::from_wire`].
    pub fn finish_wire(mut self) -> Result<Vec<u8>, RangeCodingError> {
        // Pick the value with maximal trailing zeros in [low, low+range).
        let lo = self.low;
        let hi = lo + u64::from(self.range) - 1;
        for k in (0..48).rev() {
            let cand = (hi >> k) << k;
            if cand >= lo {
                self.low = cand;
                break;
            }
        }
        let mut full = {
            for _ in 0..5 {
                self.shift_low()?;
            }
            self.out
        };
        if !full.is_empty() {
            full.remove(0);
        }
        while full.last() == Some(&0) {
            full.pop();
        }
        Ok(full)
    }

    /// Total stream length if the encoder were finished right now: emitted
    /// bytes plus the flush tail. Used for per-packet overhead accounting.
    pub fn finished_len_hint(&self) -> usize {
        // `finish` runs shift_low 5 times: each call moves one byte out of
        // (cache + low), emitting `cache_size` bytes on the calls where the
        // no-carry/carry condition holds. In total exactly cache_size + 4
        // bytes are appended.
        self.out.len() + usize::from(self.cache_size) + 4
    }

    fn shift_low(&mut self) -> Result<(), RangeCodingError> {
        const LOW_THRESHOLD: u64 = 0xFF00_0000;
        if self.low < LOW_THRESHOLD || self.low > u64::from(u32::MAX) {
            let carry = (self.low >> 32) as u8;
            let mut byte = self.cache;
            loop {
                self.out.push(byte.wrapping_add(carry));
                byte = 0xFF;
                self.cache_size -= 1;
                if self.cache_size == 0 {
                    break;
                }
            }
            self.cache = (self.low >> 24) as u8;
        }
        self.cache_size = self
            .cache_size
            .checked_add(1)
            .ok_or(RangeCodingError::CacheOverflow)?;
        self.low = (self.low << 8) & u64::from(u32::MAX);
        Ok(())
    }
}

/// Longest virtual zero tail the decoder will synthesize before declaring
/// the input truncated. Legitimate streams need at most a handful of
/// virtual zeros (see [`RangeDecoder::virtual_reads`]); the bound exists
/// so a truncated or corrupted stream becomes a typed
/// [`RangeCodingError::UnexpectedEof`] instead of an endless supply of
/// zero-fed garbage symbols.
pub const MAX_VIRTUAL_TAIL: usize = 64;

/// Range decoder over a finished stream.
#[derive(Debug, Clone)]
pub struct RangeDecoder<'a> {
    code: u32,
    range: u32,
    /// Sub-range width computed by the last `decode_target` call.
    r: u32,
    buf: &'a [u8],
    pos: usize,
    /// Bytes synthesized past the end of `buf` (the virtual zero tail).
    virtual_reads: usize,
}

impl<'a> RangeDecoder<'a> {
    /// Creates a decoder; consumes the 5-byte preamble emitted by `finish`'s
    /// counterpart on the encoder side (the first byte is always the initial
    /// zero cache and is discarded by the shift).
    pub fn new(buf: &'a [u8]) -> Result<Self, RangeCodingError> {
        let mut d = Self {
            code: 0,
            range: u32::MAX,
            r: 0,
            buf,
            pos: 0,
            virtual_reads: 0,
        };
        for _ in 0..5 {
            d.code = (d.code << 8) | u32::from(d.next_byte()?);
        }
        Ok(d)
    }

    /// Creates a decoder over a wire-trimmed stream produced by
    /// [`RangeEncoder::finish_wire`]: the always-zero leading byte is
    /// synthesized, and missing trailing zeros are read virtually.
    pub fn from_wire(buf: &'a [u8]) -> Result<Self, RangeCodingError> {
        let mut d = Self {
            code: 0,
            range: u32::MAX,
            r: 0,
            buf,
            pos: 0,
            virtual_reads: 0,
        };
        // Equivalent to reading a zero byte followed by the first four wire
        // bytes (the zero shifts entirely out of the 32-bit code).
        for _ in 0..4 {
            d.code = (d.code << 8) | u32::from(d.next_byte()?);
        }
        Ok(d)
    }

    fn next_byte(&mut self) -> Result<u8, RangeCodingError> {
        // Reading a little past the end is legal and *expected*: the wire
        // format trims trailing zero bytes, and the final renormalisations
        // look a few bytes beyond the last meaningful one, so virtual zeros
        // keep the arithmetic consistent. Exhaustion is tracked rather than
        // silent: `virtual_reads` counts every synthesized byte (exposed via
        // [`Self::virtual_reads`]), and once the tail exceeds
        // [`MAX_VIRTUAL_TAIL`] — far beyond what any finished stream needs —
        // the input must be truncated and decoding fails with a typed error
        // instead of manufacturing symbols from zeros forever.
        if let Some(&b) = self.buf.get(self.pos) {
            self.pos += 1;
            return Ok(b);
        }
        self.virtual_reads += 1;
        if self.virtual_reads > MAX_VIRTUAL_TAIL {
            return Err(RangeCodingError::UnexpectedEof);
        }
        self.pos += 1;
        Ok(0)
    }

    /// Returns the cumulative-frequency target for the next symbol under a
    /// model with the given `total`. The caller maps the target to a symbol
    /// `(cum, freq)` and must then call [`decode_advance`](Self::decode_advance).
    pub fn decode_target(&mut self, total: u32) -> Result<u32, RangeCodingError> {
        if total == 0 || total > MAX_TOTAL {
            return Err(RangeCodingError::InvalidFrequencies {
                cum: 0,
                freq: 0,
                total,
            });
        }
        self.r = self.range / total;
        Ok((self.code / self.r).min(total - 1))
    }

    /// Consumes the symbol identified after [`decode_target`](Self::decode_target).
    pub fn decode_advance(&mut self, cum: u32, freq: u32) -> Result<(), RangeCodingError> {
        self.code -= cum * self.r;
        self.range = self.r * freq;
        while self.range < TOP {
            self.code = (self.code << 8) | u32::from(self.next_byte()?);
            self.range <<= 8;
        }
        Ok(())
    }

    /// Decodes a value encoded with [`RangeEncoder::encode_uniform`].
    pub fn decode_uniform(&mut self, n: u32) -> Result<u32, RangeCodingError> {
        let v = self.decode_target(n)?;
        self.decode_advance(v, 1)?;
        Ok(v)
    }

    /// Bytes of input consumed so far (may exceed buffer length by the
    /// virtual zero-tail used during final renormalisation).
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// Bytes synthesized past the end of the input.
    ///
    /// A few (≤ 5: the code-register preamble plus final-renormalisation
    /// look-ahead) are normal for wire-trimmed streams. A larger count
    /// means the decoder ran off the end of a truncated stream and every
    /// symbol since has been decoded from manufactured zeros — callers
    /// that must *reject* truncation (rather than rely on downstream
    /// validation) should check this after the last expected symbol.
    pub fn virtual_reads(&self) -> usize {
        self.virtual_reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes `syms` under a fixed uniform model of `n` symbols, decodes back.
    fn round_trip_uniform(syms: &[u32], n: u32) {
        let mut enc = RangeEncoder::new();
        for &s in syms {
            enc.encode(s, 1, n).unwrap();
        }
        let bytes = enc.finish().unwrap();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for &s in syms {
            let t = dec.decode_target(n).unwrap();
            assert_eq!(t, s);
            dec.decode_advance(t, 1).unwrap();
        }
    }

    #[test]
    fn empty_stream_round_trips() {
        let enc = RangeEncoder::new();
        let bytes = enc.finish().unwrap();
        // 5 flush bytes.
        assert_eq!(bytes.len(), 5);
        RangeDecoder::new(&bytes).unwrap();
    }

    #[test]
    fn uniform_round_trip_small() {
        round_trip_uniform(&[0, 1, 2, 1, 0, 2, 2, 2, 0], 3);
    }

    #[test]
    fn uniform_round_trip_binary_long() {
        let syms: Vec<u32> = (0..2000).map(|i| u32::from(i % 7 == 0)).collect();
        round_trip_uniform(&syms, 2);
    }

    #[test]
    fn uniform_round_trip_max_total() {
        let syms: Vec<u32> = (0..500)
            .map(|i| (i * 2654435761u64 % 65536) as u32)
            .collect();
        round_trip_uniform(&syms, MAX_TOTAL);
    }

    #[test]
    fn skewed_model_round_trip() {
        // Model: sym0 freq 60000, sym1 freq 5535, sym2 freq 1; total 65536.
        let freqs = [60000u32, 5535, 1];
        let cums = [0u32, 60000, 65535];
        let total = 65536;
        let syms = [0usize, 0, 0, 1, 0, 2, 0, 0, 1, 1, 2, 0];
        let mut enc = RangeEncoder::new();
        for &s in &syms {
            enc.encode(cums[s], freqs[s], total).unwrap();
        }
        let bytes = enc.finish().unwrap();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for &s in &syms {
            let t = dec.decode_target(total).unwrap();
            let sym = if t < 60000 {
                0
            } else if t < 65535 {
                1
            } else {
                2
            };
            assert_eq!(sym, s);
            dec.decode_advance(cums[sym], freqs[sym]).unwrap();
        }
    }

    #[test]
    fn skewed_model_compresses() {
        // 10_000 symbols, 99.9% are symbol 0 with p=0.999 → ~0.0114 bits/sym.
        let total = 1000;
        let mut enc = RangeEncoder::new();
        for i in 0..10_000 {
            if i % 1000 == 999 {
                enc.encode(999, 1, total).unwrap();
            } else {
                enc.encode(0, 999, total).unwrap();
            }
        }
        let bytes = enc.finish().unwrap();
        // Entropy bound ≈ 10000 * H(0.001) / 8 ≈ 14.3 bytes; allow coder
        // overhead + flush.
        assert!(bytes.len() < 40, "got {} bytes", bytes.len());
    }

    #[test]
    fn suspend_resume_equals_straight_through() {
        let total = 16;
        let syms: Vec<u32> = (0..300).map(|i| (i * 31 % 16) as u32).collect();

        // Straight-through encoding.
        let mut enc = RangeEncoder::new();
        for &s in &syms {
            enc.encode(s, 1, total).unwrap();
        }
        let direct = enc.finish().unwrap();

        // Suspend/resume after every symbol (the per-hop pattern).
        let mut state = EncoderState::fresh();
        let mut carried: Vec<u8> = Vec::new();
        for &s in &syms {
            let mut enc = RangeEncoder::resume(state, std::mem::take(&mut carried));
            enc.encode(s, 1, total).unwrap();
            let (st, bytes) = enc.suspend();
            state = st;
            carried = bytes;
        }
        let hopwise = RangeEncoder::resume(state, carried).finish().unwrap();

        assert_eq!(direct, hopwise);
    }

    #[test]
    fn finished_len_hint_is_exact() {
        let total = 8;
        let mut enc = RangeEncoder::new();
        for i in 0..123u32 {
            enc.encode(i % 8, 1, total).unwrap();
            let hint = enc.finished_len_hint();
            let finished = enc.clone().finish().unwrap().len();
            assert_eq!(hint, finished, "after symbol {i}");
        }
    }

    #[test]
    fn wire_format_round_trips() {
        for len in [0usize, 1, 2, 5, 50, 500] {
            let total = 11;
            let syms: Vec<u32> = (0..len).map(|i| (i * 7 % 11) as u32).collect();
            let mut enc = RangeEncoder::new();
            for &s in &syms {
                enc.encode_uniform(s, total).unwrap();
            }
            let wire = enc.finish_wire().unwrap();
            let mut dec = RangeDecoder::from_wire(&wire).unwrap();
            for &s in &syms {
                assert_eq!(dec.decode_uniform(total).unwrap(), s, "len={len}");
            }
        }
    }

    #[test]
    fn wire_format_is_smaller_than_full() {
        let mut enc = RangeEncoder::new();
        for i in 0..10u32 {
            enc.encode_uniform(i % 4, 4).unwrap();
        }
        let full = enc.clone().finish().unwrap();
        let wire = enc.finish_wire().unwrap();
        assert!(wire.len() < full.len());
        // Leading zero gone, trailing zeros trimmed.
        if !wire.is_empty() {
            assert_eq!(wire[0], full[1]);
            assert_ne!(wire.last(), Some(&0));
        }
    }

    #[test]
    fn wire_tail_is_near_content_size() {
        // ~30 bits of content (10 symbols × 3 bits) should land within a
        // byte or two of the 4-byte information content, not 4+ bytes over.
        let mut enc = RangeEncoder::new();
        for i in 0..10u32 {
            enc.encode_uniform(i % 8, 8).unwrap();
        }
        let wire = enc.finish_wire().unwrap();
        assert!(
            wire.len() <= 5,
            "30 bits should fit 5 wire bytes, got {}",
            wire.len()
        );
    }

    #[test]
    fn wire_format_survives_carry_heavy_streams() {
        // The same pattern as carry_propagation_stress, through the wire
        // path (the leading byte may carry to 1; stripping it must still be
        // safe because the decoder discards byte 0 of the full stream).
        let total = 65536;
        let mut enc = RangeEncoder::new();
        let mut expect = Vec::new();
        for i in 0..3000u32 {
            let cum = if i % 2 == 0 { 65535 } else { 0 };
            expect.push(cum);
            enc.encode(cum, 1, total).unwrap();
        }
        let wire = enc.finish_wire().unwrap();
        let mut dec = RangeDecoder::from_wire(&wire).unwrap();
        for &cum in &expect {
            let t = dec.decode_target(total).unwrap();
            assert_eq!(t, cum);
            dec.decode_advance(cum, 1).unwrap();
        }
    }

    #[test]
    fn empty_wire_stream_decodes() {
        let enc = RangeEncoder::new();
        let wire = enc.finish_wire().unwrap();
        assert!(
            wire.is_empty(),
            "no symbols → zero wire bytes, got {wire:?}"
        );
        RangeDecoder::from_wire(&wire).unwrap();
    }

    #[test]
    fn rejects_zero_frequency() {
        let mut enc = RangeEncoder::new();
        assert!(matches!(
            enc.encode(0, 0, 10),
            Err(RangeCodingError::InvalidFrequencies { .. })
        ));
    }

    #[test]
    fn rejects_total_above_max() {
        let mut enc = RangeEncoder::new();
        assert!(enc.encode(0, 1, MAX_TOTAL + 1).is_err());
    }

    #[test]
    fn rejects_cum_freq_overflow() {
        let mut enc = RangeEncoder::new();
        assert!(enc.encode(9, 2, 10).is_err());
    }

    #[test]
    fn mixed_context_round_trip() {
        // Interleave three different totals, as Dophy does with its
        // next-hop / retx / escape contexts.
        let plan: Vec<(u32, u32)> = (0..400)
            .map(|i| match i % 3 {
                0 => (4, (i / 3 % 4) as u32),
                1 => (100, (i % 100) as u32),
                _ => (65536, (i * 37 % 65536) as u32),
            })
            .collect();
        let mut enc = RangeEncoder::new();
        for &(n, v) in &plan {
            enc.encode_uniform(v, n).unwrap();
        }
        let bytes = enc.finish().unwrap();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for &(n, v) in &plan {
            assert_eq!(dec.decode_uniform(n).unwrap(), v);
        }
    }

    #[test]
    fn truncated_mid_stream_errors_instead_of_looping() {
        // Cut a long stream in half: decoding must hit a typed EOF once
        // the virtual zero tail is spent, never spin forever handing out
        // zero-manufactured symbols.
        let total = 256;
        let mut enc = RangeEncoder::new();
        for i in 0..2000u32 {
            enc.encode_uniform(i.wrapping_mul(2654435761) % total, total)
                .unwrap();
        }
        let bytes = enc.finish().unwrap();
        let cut = &bytes[..bytes.len() / 2];
        let mut dec = RangeDecoder::new(cut).unwrap();
        let mut err = None;
        for _ in 0..4000 {
            if let Err(e) = dec.decode_uniform(total) {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(RangeCodingError::UnexpectedEof));
        assert!(
            dec.virtual_reads() > MAX_VIRTUAL_TAIL,
            "EOF must come from the exhaustion guard, got {} virtual reads",
            dec.virtual_reads()
        );
    }

    #[test]
    fn intact_wire_stream_uses_bounded_virtual_tail() {
        // The legitimate zero-pad past a trimmed wire stream stays tiny;
        // anything bigger would blur the truncation signal.
        let total = 11;
        let syms: Vec<u32> = (0..500).map(|i| (i * 7 % 11) as u32).collect();
        let mut enc = RangeEncoder::new();
        for &s in &syms {
            enc.encode_uniform(s, total).unwrap();
        }
        let wire = enc.finish_wire().unwrap();
        let mut dec = RangeDecoder::from_wire(&wire).unwrap();
        for &s in &syms {
            assert_eq!(dec.decode_uniform(total).unwrap(), s);
        }
        assert!(
            dec.virtual_reads() <= 5,
            "complete stream needed {} virtual bytes",
            dec.virtual_reads()
        );
    }

    #[test]
    fn carry_propagation_stress() {
        // Encode a pattern engineered to produce long runs near the carry
        // boundary: alternating near-1.0 and near-0.0 cumulative positions.
        let total = 65536;
        let mut enc = RangeEncoder::new();
        let mut expect = Vec::new();
        for i in 0..5000u32 {
            let (cum, freq) = if i % 2 == 0 { (65535, 1) } else { (0, 1) };
            expect.push((cum, freq));
            enc.encode(cum, freq, total).unwrap();
        }
        let bytes = enc.finish().unwrap();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for &(cum, freq) in &expect {
            let t = dec.decode_target(total).unwrap();
            assert_eq!(t, cum);
            dec.decode_advance(cum, freq).unwrap();
        }
    }
}
