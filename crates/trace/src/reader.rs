//! Streaming and in-memory trace readers.

use crate::error::TraceError;
use crate::format::{
    read_frame, TraceFooter, TraceMeta, KIND_DATA, KIND_FOOTER, KIND_HEADER, MAGIC,
};
use crate::record::TraceRecord;
use crate::wire::Cursor;
use lis_core::Visibility;
use std::io::Read;

/// Decodes the records of one chunk payload.
///
/// # Errors
///
/// [`TraceError::Corrupt`] when the payload decodes to a different number of
/// records than the frame declared, or on any malformed record.
pub fn decode_chunk(
    payload: &[u8],
    ninsts: u32,
    out: &mut Vec<TraceRecord>,
) -> Result<(), TraceError> {
    for_each_record(payload, ninsts, &mut TraceRecord::default(), |rec| out.push(*rec))
}

/// Decodes the records of one chunk payload one at a time into `rec`,
/// handing each to `f` as soon as it is decoded — the copy-free form of
/// [`decode_chunk`], with the same checks.
///
/// # Errors
///
/// As [`decode_chunk`]; records before the failing one have been handed on.
pub(crate) fn for_each_record(
    payload: &[u8],
    ninsts: u32,
    rec: &mut TraceRecord,
    mut f: impl FnMut(&TraceRecord),
) -> Result<(), TraceError> {
    let mut cur = Cursor::new(payload);
    let mut prev_next_pc = 0u64;
    for _ in 0..ninsts {
        rec.decode_in_place(&mut cur, prev_next_pc)?;
        prev_next_pc = rec.header.next_pc;
        f(rec);
    }
    if !cur.at_end() {
        return Err(TraceError::Corrupt("chunk has trailing bytes after last record"));
    }
    Ok(())
}

/// A chunk-at-a-time streaming reader.
///
/// Construction consumes and validates the magic, version, and header;
/// [`TraceReader::next_chunk`] then yields one chunk of records at a time,
/// verifying each frame's CRC, until the footer is reached.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    r: R,
    meta: TraceMeta,
    footer: Option<TraceFooter>,
    frames_read: usize,
    records_read: u64,
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace stream.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`], [`TraceError::UnsupportedVersion`], or any
    /// header decode failure.
    pub fn open(mut r: R) -> Result<TraceReader<R>, TraceError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic).map_err(|_| TraceError::BadMagic)?;
        if &magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut ver = [0u8; 4];
        r.read_exact(&mut ver).map_err(|_| TraceError::Truncated)?;
        let version = u32::from_le_bytes(ver);
        if version != crate::VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let frame = read_frame(&mut r, 0)?.ok_or(TraceError::Truncated)?;
        if frame.kind != KIND_HEADER {
            return Err(TraceError::Corrupt("first frame is not a header"));
        }
        let meta = TraceMeta::decode(&frame.payload)?;
        Ok(TraceReader { r, meta, footer: None, frames_read: 1, records_read: 0 })
    }

    /// The trace header.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The footer — available once [`TraceReader::next_chunk`] has returned
    /// `Ok(None)`.
    pub fn footer(&self) -> Option<&TraceFooter> {
        self.footer.as_ref()
    }

    /// Reads and decodes the next data chunk into `out` (which is cleared
    /// first). Returns the number of records, or `None` after the footer.
    ///
    /// # Errors
    ///
    /// Any integrity or decode failure; [`TraceError::Truncated`] when the
    /// stream ends before a footer frame.
    pub fn next_chunk(&mut self, out: &mut Vec<TraceRecord>) -> Result<Option<usize>, TraceError> {
        out.clear();
        if self.footer.is_some() {
            return Ok(None);
        }
        let Some(frame) = read_frame(&mut self.r, self.frames_read)? else {
            // EOF without a footer: the file was cut off at a frame boundary.
            return Err(TraceError::Truncated);
        };
        self.frames_read += 1;
        match frame.kind {
            KIND_DATA => {
                decode_chunk(&frame.payload, frame.ninsts, out)?;
                self.records_read += u64::from(frame.ninsts);
                Ok(Some(out.len()))
            }
            KIND_FOOTER => {
                let footer = TraceFooter::decode(&frame.payload)?;
                if footer.insts != self.records_read {
                    return Err(TraceError::Corrupt("footer record count disagrees with chunks"));
                }
                self.footer = Some(footer);
                Ok(None)
            }
            _ => Err(TraceError::Corrupt("unexpected extra header frame")),
        }
    }
}

/// A fully loaded trace: header, raw (CRC-verified) chunk payloads, footer.
///
/// Chunk payloads are kept encoded so sharded replay can hand disjoint
/// chunk ranges to worker threads, each decoding its own share — decoding
/// is the expensive part, and this is what parallelizes it.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The trace header.
    pub meta: TraceMeta,
    /// Raw data-chunk payloads with their record counts.
    pub chunks: Vec<(Vec<u8>, u32)>,
    /// The trace footer.
    pub footer: TraceFooter,
}

impl Trace {
    /// Reads a whole trace into memory, verifying every CRC.
    ///
    /// # Errors
    ///
    /// See [`TraceReader::open`] and [`TraceReader::next_chunk`].
    pub fn read_from(mut r: impl Read) -> Result<Trace, TraceError> {
        // Stream frames directly so payloads are moved, not re-decoded.
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic).map_err(|_| TraceError::BadMagic)?;
        if &magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut ver = [0u8; 4];
        r.read_exact(&mut ver).map_err(|_| TraceError::Truncated)?;
        let version = u32::from_le_bytes(ver);
        if version != crate::VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let frame = read_frame(&mut r, 0)?.ok_or(TraceError::Truncated)?;
        if frame.kind != KIND_HEADER {
            return Err(TraceError::Corrupt("first frame is not a header"));
        }
        let meta = TraceMeta::decode(&frame.payload)?;
        let mut chunks = Vec::new();
        let mut total = 0u64;
        let mut index = 1usize;
        loop {
            let Some(frame) = read_frame(&mut r, index)? else {
                return Err(TraceError::Truncated);
            };
            index += 1;
            match frame.kind {
                KIND_DATA => {
                    total += u64::from(frame.ninsts);
                    chunks.push((frame.payload, frame.ninsts));
                }
                KIND_FOOTER => {
                    let footer = TraceFooter::decode(&frame.payload)?;
                    if footer.insts != total {
                        return Err(TraceError::Corrupt(
                            "footer record count disagrees with chunks",
                        ));
                    }
                    return Ok(Trace { meta, chunks, footer });
                }
                _ => return Err(TraceError::Corrupt("unexpected extra header frame")),
            }
        }
    }

    /// Total records in the trace.
    pub fn insts(&self) -> u64 {
        self.footer.insts
    }

    /// Decodes every record, optionally projecting to a lower visibility.
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] on a malformed chunk (possible only if the
    /// trace was built by hand — `read_from` already verified CRCs).
    pub fn records(&self, project: Option<Visibility>) -> Result<Vec<TraceRecord>, TraceError> {
        let mut out = Vec::with_capacity(self.footer.insts as usize);
        for (payload, ninsts) in &self.chunks {
            decode_chunk(payload, *ninsts, &mut out)?;
        }
        if let Some(vis) = project {
            for rec in &mut out {
                *rec = rec.project(vis);
            }
        }
        Ok(out)
    }
}

/// Summary facts for `lis trace info`.
#[derive(Debug, Clone)]
pub struct TraceInfo {
    /// The trace header.
    pub meta: TraceMeta,
    /// The trace footer.
    pub footer: TraceFooter,
    /// Number of data chunks.
    pub chunks: usize,
    /// Total encoded record bytes (sum of data payloads).
    pub data_bytes: u64,
}

impl TraceInfo {
    /// Streams a trace, verifying all CRCs and decoding every record, and
    /// returns the summary. This is the integrity check behind
    /// `lis trace info`.
    ///
    /// # Errors
    ///
    /// Any integrity or decode failure anywhere in the file.
    pub fn scan(r: impl Read) -> Result<TraceInfo, TraceError> {
        let trace = Trace::read_from(r)?;
        let data_bytes = trace.chunks.iter().map(|(p, _)| p.len() as u64).sum();
        // Decode everything: `info` certifies the trace is fully readable,
        // not just CRC-clean.
        trace.records(None)?;
        Ok(TraceInfo {
            chunks: trace.chunks.len(),
            data_bytes,
            meta: trace.meta,
            footer: trace.footer,
        })
    }
}

impl std::fmt::Display for TraceInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "isa {}  buildset {}  kernel {}  seed {}",
            self.meta.isa, self.meta.buildset, self.meta.kernel, self.meta.seed
        )?;
        writeln!(
            f,
            "records {}  chunks {}  halted {}  exit {}",
            self.footer.insts, self.chunks, self.footer.halted, self.footer.exit_code
        )?;
        write!(
            f,
            "stats: {} insts, {} calls, {} blocks, {} faults",
            self.footer.stats.insts,
            self.footer.stats.calls,
            self.footer.stats.blocks,
            self.footer.stats.faults
        )
    }
}
