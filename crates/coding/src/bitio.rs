//! Bit-level I/O over byte buffers.
//!
//! [`BitWriter`] and [`BitReader`] provide MSB-first bit streams used by the
//! baseline entropy coders ([`crate::golomb`], [`crate::elias`],
//! [`crate::fixed`]). The arithmetic coder in [`crate::range`] works on whole
//! bytes and does not use these types.
//!
//! Bits are packed most-significant-bit first: the first bit written lands in
//! bit 7 of byte 0. A partially filled final byte is zero-padded on flush,
//! which means a reader must know (from context) how many symbols to read —
//! exactly the situation in packet headers where the symbol count is implied
//! by the hop count.

/// Accumulates bits MSB-first into an internal byte buffer.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Current partial byte, bits occupy the high positions.
    cur: u8,
    /// Number of valid bits in `cur` (0..=7).
    nbits: u8,
    /// Total bits written (including those still in `cur`).
    total_bits: u64,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a single bit (`true` = 1).
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.cur = (self.cur << 1) | u8::from(bit);
        self.nbits += 1;
        self.total_bits += 1;
        if self.nbits == 8 {
            self.buf.push(self.cur);
            self.cur = 0;
            self.nbits = 0;
        }
    }

    /// Writes the low `n` bits of `value`, most significant first.
    ///
    /// # Panics
    /// Panics if `n > 64`.
    pub fn write_bits(&mut self, value: u64, n: u32) {
        assert!(n <= 64, "cannot write more than 64 bits at once");
        for i in (0..n).rev() {
            self.write_bit((value >> i) & 1 == 1);
        }
    }

    /// Writes `n` consecutive one-bits followed by a zero (unary coding).
    pub fn write_unary(&mut self, n: u64) {
        for _ in 0..n {
            self.write_bit(true);
        }
        self.write_bit(false);
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.total_bits
    }

    /// Number of bytes the finished stream will occupy.
    pub fn byte_len(&self) -> usize {
        (self.total_bits as usize).div_ceil(8)
    }

    /// Flushes the partial byte (zero-padded) and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.buf.push(self.cur << (8 - self.nbits));
        }
        self.buf
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit position of the next bit to read.
    pos: u64,
}

/// Error returned when a read runs past the end of the underlying buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBits;

impl std::fmt::Display for OutOfBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bit reader exhausted")
    }
}

impl std::error::Error for OutOfBits {}

impl<'a> BitReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Reads one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool, OutOfBits> {
        let byte = (self.pos / 8) as usize;
        if byte >= self.buf.len() {
            return Err(OutOfBits);
        }
        let shift = 7 - (self.pos % 8) as u32;
        self.pos += 1;
        Ok((self.buf[byte] >> shift) & 1 == 1)
    }

    /// Reads `n` bits MSB-first into the low bits of the result.
    ///
    /// # Panics
    /// Panics if `n > 64`.
    pub fn read_bits(&mut self, n: u32) -> Result<u64, OutOfBits> {
        assert!(n <= 64, "cannot read more than 64 bits at once");
        let mut v = 0u64;
        for _ in 0..n {
            v = (v << 1) | u64::from(self.read_bit()?);
        }
        Ok(v)
    }

    /// Reads a unary-coded value: counts one-bits until the terminating zero.
    pub fn read_unary(&mut self) -> Result<u64, OutOfBits> {
        let mut n = 0u64;
        while self.read_bit()? {
            n += 1;
        }
        Ok(n)
    }

    /// Bits consumed so far.
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// Bits remaining in the buffer (including any padding bits).
    pub fn remaining_bits(&self) -> u64 {
        (self.buf.len() as u64 * 8).saturating_sub(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [
            true, false, true, true, false, false, true, false, true, true,
        ];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), 10);
        assert_eq!(w.byte_len(), 2);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_values_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bits(1, 1);
        w.write_bits(u64::MAX, 64);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
    }

    #[test]
    fn zero_width_write_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(123, 0);
        assert_eq!(w.bit_len(), 0);
        assert!(w.finish().is_empty());
    }

    #[test]
    fn unary_round_trip() {
        let mut w = BitWriter::new();
        for n in [0u64, 1, 2, 7, 20] {
            w.write_unary(n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for n in [0u64, 1, 2, 7, 20] {
            assert_eq!(r.read_unary().unwrap(), n);
        }
    }

    #[test]
    fn reader_reports_exhaustion() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        // One padded byte: 8 bits readable, then exhausted.
        assert_eq!(r.read_bits(8).unwrap(), 0b1010_0000);
        assert_eq!(r.read_bit(), Err(OutOfBits));
    }

    #[test]
    fn byte_len_matches_finish() {
        for nbits in 0..40u32 {
            let mut w = BitWriter::new();
            for i in 0..nbits {
                w.write_bit(i % 3 == 0);
            }
            let expected = w.byte_len();
            assert_eq!(w.finish().len(), expected, "nbits={nbits}");
        }
    }

    #[test]
    fn bit_pos_tracks_reads() {
        let mut w = BitWriter::new();
        w.write_bits(0xAB, 8);
        w.write_bits(0xCD, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bit_pos(), 0);
        assert_eq!(r.remaining_bits(), 16);
        r.read_bits(5).unwrap();
        assert_eq!(r.bit_pos(), 5);
        assert_eq!(r.remaining_bits(), 11);
    }
}
