//! Little-endian codec primitives for the length-prefixed `spo-index`
//! layout (exported `.spi` files and the summary cache's `.spc` files).
//!
//! Reading is built on [`Cursor`], a bounded reader whose every method
//! fails soundly on truncation, and on *checked counted reads*
//! ([`Cursor::counted`]): a decoded element count is validated against the
//! bytes actually remaining **before** any allocation or slicing, so a
//! length field truncated or corrupted into a huge value degrades to a
//! decode error instead of a capacity panic or an over-reserve.

/// Appends a little-endian u32.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian u64.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string (u32 length + bytes).
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounded reader over a byte slice; every method fails soundly on
/// truncation and nothing is allocated before its length is validated.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    /// A cursor at byte offset `pos` (for skipping a text header).
    pub fn at(bytes: &'a [u8], pos: usize) -> Cursor<'a> {
        Cursor { bytes, pos }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    /// Takes the next `n` bytes, or fails if fewer remain.
    ///
    /// # Errors
    ///
    /// `"truncated entry"` on overrun.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or("truncated entry")?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().map_err(|_| "truncated entry")?,
        ))
    }

    /// Reads a little-endian u64.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().map_err(|_| "truncated entry")?,
        ))
    }

    /// Reads a u32 element count and validates `count * min_item_bytes`
    /// against the bytes remaining **before** the caller allocates or
    /// loops — the checked-read guard for length-prefixed collections.
    /// `min_item_bytes` is the smallest possible encoding of one element,
    /// so the check is a sound lower bound.
    ///
    /// # Errors
    ///
    /// Fails on truncation or an impossible count.
    pub fn counted(&mut self, min_item_bytes: usize) -> Result<u32, String> {
        let n = self.u32()?;
        self.check_count(n as u64, min_item_bytes)?;
        Ok(n)
    }

    /// [`Self::counted`] for u64 counts (file-level row and byte counts).
    ///
    /// # Errors
    ///
    /// Fails on truncation or an impossible count.
    pub fn counted64(&mut self, min_item_bytes: usize) -> Result<u64, String> {
        let n = self.u64()?;
        self.check_count(n, min_item_bytes)?;
        Ok(n)
    }

    fn check_count(&self, n: u64, min_item_bytes: usize) -> Result<(), String> {
        let need = n.checked_mul(min_item_bytes as u64);
        match need {
            Some(need) if need <= self.remaining() as u64 => Ok(()),
            _ => Err(format!(
                "impossible count {n} (needs ≥ {} bytes, {} remain)",
                need.map_or("overflowing".to_owned(), |b| b.to_string()),
                self.remaining()
            )),
        }
    }

    /// Reads a length-prefixed UTF-8 string borrowed from the underlying
    /// bytes (zero-copy).
    ///
    /// # Errors
    ///
    /// Fails on truncation or invalid UTF-8.
    pub fn str_ref(&mut self) -> Result<&'a str, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| "invalid UTF-8 in entry".to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_strings() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 1);
        put_str(&mut buf, "Class.method(int)");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u32().unwrap(), 7);
        assert_eq!(c.u64().unwrap(), u64::MAX - 1);
        assert_eq!(c.str_ref().unwrap(), "Class.method(int)");
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn truncation_fails_soundly() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        let mut c = Cursor::new(&buf[..6]); // length says 5, only 2 remain
        assert!(c.str_ref().is_err());
    }

    #[test]
    fn counted_rejects_impossible_counts_before_allocation() {
        // A corrupted count of ~4 billion items in a 12-byte buffer must
        // fail the guard, not reach a collect() that pre-reserves.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        put_u64(&mut buf, 0);
        let mut c = Cursor::new(&buf);
        let err = c.counted(4).unwrap_err();
        assert!(err.contains("impossible count"), "{err}");

        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX); // × any min size overflows u64
        let mut c = Cursor::new(&buf);
        assert!(c.counted64(12).is_err());

        // A plausible count passes and the items read back.
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        put_u32(&mut buf, 10);
        put_u32(&mut buf, 20);
        let mut c = Cursor::new(&buf);
        let n = c.counted(4).unwrap();
        let items: Vec<u32> = (0..n).map(|_| c.u32().unwrap()).collect();
        assert_eq!(items, [10, 20]);
    }
}
