//! Fault-contained on-disk snapshots of the trained arenas.
//!
//! The paper's system is deployed: models are trained offline and shipped
//! to parks, so a corrupt model file is an operational fact, not an edge
//! case. The traversal kernels ([`Forest::predict_proba_batch`] and the
//! fused iWare-E stack) keep **unchecked** hot-path indexing, which is only
//! sound because every arena they touch was built by the validating splice
//! (`push_raw_tree`). A snapshot load is a second way to obtain an arena,
//! so it must re-establish exactly the same invariants once, at the trust
//! boundary, before the bytes are allowed to become a [`Forest`].
//!
//! # Wire format (version 1, little-endian)
//!
//! One contiguous slab:
//!
//! ```text
//! header   (20 B)  magic "PAWSNAP1" · version u16 · endian tag u16 (0x1234)
//!                  · payload kind u16 · reserved u16 (0) · section count u32
//! table    (32 B × count)  per section: kind u32 · reserved u32 (0)
//!                  · absolute offset u64 · length u64 · FNV-1a 64 checksum
//! table checksum (8 B)  FNV-1a 64 over header + table bytes
//! payload  sections, back to back, in table order
//! ```
//!
//! Sections must be **contiguous** (each offset equals the previous
//! section's end, the first starts right after the table checksum, the last
//! ends at the slab's end), so truncation, overlap, over- and under-stated
//! lengths are all structurally detectable, not just checksum-detectable.
//!
//! # Decoder guarantees
//!
//! [`SnapshotReader::parse`] + [`SnapshotReader::read_forest`] reject, with
//! a typed [`SnapshotError`] and never a panic:
//!
//! * wrong magic / version / endianness / payload kind, corrupt header;
//! * any section whose checksum, bounds or length disagree with the table;
//! * any arena that violates a structural invariant of the splice:
//!   child indices in bounds and BFS-adjacent (`right = left + 1`, children
//!   allocated in scan order), leaves self-referencing with an exact `+∞`
//!   threshold and `feature = 0`, split features `< n_features`, split
//!   thresholds finite, interior leaf-table slots exactly `+0.0`, leaf
//!   probabilities finite, root offsets strictly monotone and covering the
//!   node slab exactly, stored depths equal to the recomputed depths.
//!
//! A decoded arena is therefore indistinguishable from a spliced one, and
//! the kernels' unchecked indexing stays sound.
//!
//! Only f64 arenas have a wire format: the f32 plane's arena is a cache
//! derived from the f64 one and is rebuilt after a load, never stored.

use crate::forest::{ArenaNode, Forest};

const MAGIC: [u8; 8] = *b"PAWSNAP1";
/// Format version written by this build; bumped on any layout change.
pub const FORMAT_VERSION: u16 = 1;
/// Byte-order tag: written as `0x1234` little-endian. A snapshot produced
/// by (or mangled into) the opposite byte order reads back as `0x3412`.
pub const ENDIAN_TAG: u16 = 0x1234;

const HEADER_LEN: usize = 20;
const ENTRY_LEN: usize = 32;
/// Upper bound on the section count: far above any real payload, low
/// enough that a corrupt count cannot drive a large allocation.
const MAX_SECTIONS: usize = 64;

/// What a snapshot slab contains (header field; checked against the
/// reader's expectation so a stack snapshot cannot be fed to a forest
/// loader and vice versa).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// A single f64 [`Forest`] arena.
    Forest = 1,
    /// A fused iWare-E learner stack (forest sections plus learner
    /// ranges, weights and thresholds).
    LearnerStack = 3,
}

impl PayloadKind {
    fn from_u16(v: u16) -> Option<Self> {
        match v {
            1 => Some(Self::Forest),
            3 => Some(Self::LearnerStack),
            _ => None,
        }
    }
}

/// Section kind tags. A payload uses the subset it needs; kinds unknown to
/// a reader are rejected by [`SnapshotReader::section`] lookups simply by
/// never being requested (and the table itself only rejects duplicates).
pub mod section {
    /// Arena meta: `n_features`, `n_nodes`, `n_trees` as three `u64`s.
    pub const META: u32 = 1;
    /// Node slab: per node the `f64` threshold bits then the `u64` packed
    /// word, little-endian.
    pub const NODES: u32 = 2;
    /// Leaf-probability side table, parallel to the node slab.
    pub const LEAVES: u32 = 3;
    /// Per-tree root offsets, `u32` each.
    pub const ROOTS: u32 = 4;
    /// Per-tree depths, `u32` each.
    pub const DEPTHS: u32 = 5;
    /// iWare-E stack: per-learner `(start, end)` tree ranges, `u64` pairs.
    pub const RANGES: u32 = 6;
    /// iWare-E stack: per-learner ensemble weights, `f64` each.
    pub const WEIGHTS: u32 = 7;
    /// iWare-E stack: per-learner effort thresholds, `f64` each.
    pub const THRESHOLDS: u32 = 8;
}

/// Why a snapshot slab was rejected. Every decoder path returns one of
/// these; none panics, hangs, or lets a malformed arena reach the
/// unchecked traversal kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The slab ends before the bytes the header/table promise.
    TooShort {
        /// Bytes needed to honour the header and section table.
        need: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The first eight bytes are not the snapshot magic.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion {
        /// Version found in the header.
        got: u16,
    },
    /// The endianness tag does not read back as [`ENDIAN_TAG`].
    WrongEndianness {
        /// Tag found in the header.
        got: u16,
    },
    /// The payload kind differs from what the caller asked to load.
    WrongKind {
        /// Kind the loader expected.
        expected: u16,
        /// Kind found in the header.
        got: u16,
    },
    /// A malformed fixed header (reserved bytes, section count, or the
    /// header/table checksum).
    Header(&'static str),
    /// A malformed section table (non-contiguous, duplicate, or
    /// trailing-byte layout violations).
    Table(&'static str),
    /// A section's payload bytes do not hash to the table's checksum.
    ChecksumMismatch {
        /// Section kind whose checksum failed.
        section: u32,
    },
    /// A required section is absent.
    MissingSection {
        /// The absent section kind.
        section: u32,
    },
    /// A section's length disagrees with its element size or with the
    /// counts in the meta section.
    SectionShape {
        /// Section kind with the bad shape.
        section: u32,
        /// What disagreed.
        detail: &'static str,
    },
    /// The decoded arena violates a structural invariant of the splice
    /// (the conditions that keep unchecked traversal sound).
    Invariant(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::TooShort { need, got } => {
                write!(f, "snapshot truncated: need {need} bytes, got {got}")
            }
            SnapshotError::BadMagic => write!(f, "not a PAWS snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported snapshot version {got} (this build reads {FORMAT_VERSION})"
                )
            }
            SnapshotError::WrongEndianness { got } => {
                write!(f, "snapshot byte order mismatch (endian tag 0x{got:04x})")
            }
            SnapshotError::WrongKind { expected, got } => {
                write!(
                    f,
                    "snapshot payload kind {got} where kind {expected} was expected"
                )
            }
            SnapshotError::Header(d) => write!(f, "corrupt snapshot header: {d}"),
            SnapshotError::Table(d) => write!(f, "corrupt snapshot section table: {d}"),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "snapshot section {section} failed its checksum")
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "snapshot is missing required section {section}")
            }
            SnapshotError::SectionShape { section, detail } => {
                write!(
                    f,
                    "snapshot section {section} has a malformed shape: {detail}"
                )
            }
            SnapshotError::Invariant(d) => {
                write!(f, "snapshot arena violates a structural invariant: {d}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit — dependency-free corruption detection. Not
/// cryptographic; the threat model is bit rot and truncation, not forgery.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn read_u16(bytes: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([bytes[at], bytes[at + 1]])
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte window"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte window"))
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Builds a snapshot slab section by section. Construction-side misuse
/// (duplicate section kinds, too many sections) is a programming error and
/// panics; everything on the *read* side is typed errors only.
pub struct SnapshotWriter {
    kind: PayloadKind,
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Start a slab of the given payload kind.
    pub fn new(kind: PayloadKind) -> Self {
        Self {
            kind,
            sections: Vec::new(),
        }
    }

    /// Append a raw section.
    pub fn push_section(&mut self, kind: u32, bytes: Vec<u8>) {
        assert!(
            self.sections.iter().all(|(k, _)| *k != kind),
            "duplicate snapshot section kind {kind}"
        );
        assert!(self.sections.len() < MAX_SECTIONS, "too many sections");
        self.sections.push((kind, bytes));
    }

    /// Append a section of little-endian `f64` values.
    pub fn push_f64_section(&mut self, kind: u32, values: &[f64]) {
        let mut b = Vec::with_capacity(values.len() * 8);
        for v in values {
            b.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        self.push_section(kind, b);
    }

    /// Append a section of little-endian `u64` values.
    pub fn push_u64_section(&mut self, kind: u32, values: &[u64]) {
        let mut b = Vec::with_capacity(values.len() * 8);
        for v in values {
            b.extend_from_slice(&v.to_le_bytes());
        }
        self.push_section(kind, b);
    }

    /// Append the five arena sections of an f64 [`Forest`].
    pub fn push_forest(&mut self, forest: &Forest) {
        let (nodes, leaves, roots, depths) = forest.arena_parts();
        self.push_u64_section(
            section::META,
            &[
                forest.n_features() as u64,
                nodes.len() as u64,
                roots.len() as u64,
            ],
        );
        let mut nb = Vec::with_capacity(nodes.len() * 16);
        for n in nodes {
            let (value_bits, packed) = n.to_bits();
            nb.extend_from_slice(&value_bits.to_le_bytes());
            nb.extend_from_slice(&packed.to_le_bytes());
        }
        self.push_section(section::NODES, nb);
        self.push_f64_section(section::LEAVES, leaves);
        self.push_u32s(section::ROOTS, roots);
        self.push_u32s(section::DEPTHS, depths);
    }

    fn push_u32s(&mut self, kind: u32, values: &[u32]) {
        let mut b = Vec::with_capacity(values.len() * 4);
        for v in values {
            b.extend_from_slice(&v.to_le_bytes());
        }
        self.push_section(kind, b);
    }

    /// Assemble the contiguous slab: header, section table, table
    /// checksum, payload.
    pub fn finish(self) -> Vec<u8> {
        let table_end = HEADER_LEN + self.sections.len() * ENTRY_LEN;
        let payload_start = table_end + 8;
        let total: usize =
            payload_start + self.sections.iter().map(|(_, b)| b.len()).sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&ENDIAN_TAG.to_le_bytes());
        out.extend_from_slice(&(self.kind as u16).to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let mut offset = payload_start as u64;
        for (kind, bytes) in &self.sections {
            out.extend_from_slice(&kind.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv1a(bytes).to_le_bytes());
            offset += bytes.len() as u64;
        }
        debug_assert_eq!(out.len(), table_end);
        let table_sum = fnv1a(&out);
        out.extend_from_slice(&table_sum.to_le_bytes());
        for (_, bytes) in &self.sections {
            out.extend_from_slice(bytes);
        }
        debug_assert_eq!(out.len(), total);
        out
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A parsed, checksum-verified snapshot slab. [`SnapshotReader::parse`]
/// validates the envelope (header, table, checksums, contiguity); the
/// typed `read_*` accessors validate shapes and arena invariants.
pub struct SnapshotReader<'a> {
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> SnapshotReader<'a> {
    /// Parse and verify the envelope of `bytes`, expecting a payload of
    /// `expected` kind.
    pub fn parse(bytes: &'a [u8], expected: PayloadKind) -> Result<Self, SnapshotError> {
        if bytes.len() < HEADER_LEN + 8 {
            return Err(SnapshotError::TooShort {
                need: HEADER_LEN + 8,
                got: bytes.len(),
            });
        }
        if bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = read_u16(bytes, 8);
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { got: version });
        }
        let endian = read_u16(bytes, 10);
        if endian != ENDIAN_TAG {
            return Err(SnapshotError::WrongEndianness { got: endian });
        }
        let kind = read_u16(bytes, 12);
        if PayloadKind::from_u16(kind) != Some(expected) {
            return Err(SnapshotError::WrongKind {
                expected: expected as u16,
                got: kind,
            });
        }
        if read_u16(bytes, 14) != 0 {
            return Err(SnapshotError::Header("reserved header bytes must be zero"));
        }
        let count = read_u32(bytes, 16) as usize;
        if count > MAX_SECTIONS {
            return Err(SnapshotError::Header("section count out of range"));
        }
        let table_end = HEADER_LEN + count * ENTRY_LEN;
        if bytes.len() < table_end + 8 {
            return Err(SnapshotError::TooShort {
                need: table_end + 8,
                got: bytes.len(),
            });
        }
        let stored_sum = read_u64(bytes, table_end);
        if fnv1a(&bytes[..table_end]) != stored_sum {
            return Err(SnapshotError::Header("header/table checksum mismatch"));
        }

        let payload_start = (table_end + 8) as u64;
        let mut sections = Vec::with_capacity(count);
        let mut cursor = payload_start;
        for i in 0..count {
            let at = HEADER_LEN + i * ENTRY_LEN;
            let kind = read_u32(bytes, at);
            if read_u32(bytes, at + 4) != 0 {
                return Err(SnapshotError::Table("reserved entry bytes must be zero"));
            }
            let offset = read_u64(bytes, at + 8);
            let len = read_u64(bytes, at + 16);
            let sum = read_u64(bytes, at + 24);
            if sections.iter().any(|(k, _)| *k == kind) {
                return Err(SnapshotError::Table("duplicate section kind"));
            }
            if offset != cursor {
                return Err(SnapshotError::Table("sections must be contiguous"));
            }
            let end = offset
                .checked_add(len)
                .ok_or(SnapshotError::Table("section length overflows"))?;
            if end > bytes.len() as u64 {
                return Err(SnapshotError::TooShort {
                    need: end as usize,
                    got: bytes.len(),
                });
            }
            let payload = &bytes[offset as usize..end as usize];
            if fnv1a(payload) != sum {
                return Err(SnapshotError::ChecksumMismatch { section: kind });
            }
            sections.push((kind, payload));
            cursor = end;
        }
        if cursor != bytes.len() as u64 {
            return Err(SnapshotError::Table("trailing bytes after last section"));
        }
        Ok(Self { sections })
    }

    /// Payload bytes of a required section.
    pub fn section(&self, kind: u32) -> Result<&'a [u8], SnapshotError> {
        self.sections
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, b)| *b)
            .ok_or(SnapshotError::MissingSection { section: kind })
    }

    /// A section decoded as little-endian `f64`s.
    pub fn read_f64_section(&self, kind: u32) -> Result<Vec<f64>, SnapshotError> {
        let b = self.section(kind)?;
        if b.len() % 8 != 0 {
            return Err(SnapshotError::SectionShape {
                section: kind,
                detail: "length not a multiple of 8",
            });
        }
        Ok(b.chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
            .collect())
    }

    /// A section decoded as little-endian `u64`s.
    pub fn read_u64_section(&self, kind: u32) -> Result<Vec<u64>, SnapshotError> {
        let b = self.section(kind)?;
        if b.len() % 8 != 0 {
            return Err(SnapshotError::SectionShape {
                section: kind,
                detail: "length not a multiple of 8",
            });
        }
        Ok(b.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    fn read_u32_section(&self, kind: u32, expect: usize) -> Result<Vec<u32>, SnapshotError> {
        let b = self.section(kind)?;
        if b.len() % 4 != 0 || b.len() / 4 != expect {
            return Err(SnapshotError::SectionShape {
                section: kind,
                detail: "element count disagrees with meta",
            });
        }
        Ok(b.chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    fn read_meta(&self) -> Result<(usize, usize, usize), SnapshotError> {
        let meta = self.read_u64_section(section::META)?;
        if meta.len() != 3 {
            return Err(SnapshotError::SectionShape {
                section: section::META,
                detail: "meta must hold exactly three u64s",
            });
        }
        let n_features = usize::try_from(meta[0])
            .ok()
            .filter(|&n| n >= 1 && n <= u32::MAX as usize)
            .ok_or(SnapshotError::Invariant("feature width out of range"))?;
        let n_nodes = usize::try_from(meta[1])
            .ok()
            .filter(|&n| n < u32::MAX as usize)
            .ok_or(SnapshotError::Invariant("node count exceeds the u32 index"))?;
        let n_trees = usize::try_from(meta[2])
            .ok()
            .filter(|&n| n <= n_nodes)
            .ok_or(SnapshotError::Invariant("more trees than nodes"))?;
        Ok((n_features, n_nodes, n_trees))
    }

    /// Decode and fully validate an f64 [`Forest`].
    pub fn read_forest(&self) -> Result<Forest, SnapshotError> {
        let (n_features, n_nodes, n_trees) = self.read_meta()?;
        let nb = self.section(section::NODES)?;
        if nb.len() % 16 != 0 || nb.len() / 16 != n_nodes {
            return Err(SnapshotError::SectionShape {
                section: section::NODES,
                detail: "node count disagrees with meta",
            });
        }
        let nodes: Vec<ArenaNode> = nb
            .chunks_exact(16)
            .map(|c| {
                let value_bits = u64::from_le_bytes(c[..8].try_into().expect("8-byte half"));
                let packed = u64::from_le_bytes(c[8..].try_into().expect("8-byte half"));
                ArenaNode::from_bits(value_bits, packed)
            })
            .collect();
        let leaves = self.read_f64_section(section::LEAVES)?;
        if leaves.len() != n_nodes {
            return Err(SnapshotError::SectionShape {
                section: section::LEAVES,
                detail: "leaf count disagrees with meta",
            });
        }
        let roots = self.read_u32_section(section::ROOTS, n_trees)?;
        let depths = self.read_u32_section(section::DEPTHS, n_trees)?;
        validate_arena(&nodes, &leaves, &roots, &depths, n_features)?;
        Ok(Forest::from_validated_parts(
            nodes, leaves, roots, depths, n_features,
        ))
    }
}

// ---------------------------------------------------------------------------
// Arena validation
// ---------------------------------------------------------------------------

/// The one structural validation pass. A spliced arena allocates each
/// split's children as the next adjacent pair, in scan order — so a single
/// linear sweep per tree span can check reachability, adjacency, bounds,
/// leaf encoding and depth all at once, in O(nodes).
fn validate_arena(
    nodes: &[ArenaNode],
    leaves: &[f64],
    roots: &[u32],
    depths: &[u32],
    n_features: usize,
) -> Result<(), SnapshotError> {
    let n_nodes = nodes.len();
    if roots.is_empty() {
        if n_nodes != 0 {
            return Err(SnapshotError::Invariant("nodes present but no trees"));
        }
        return Ok(());
    }
    if roots[0] != 0 {
        return Err(SnapshotError::Invariant("first root must be node 0"));
    }
    let mut levels: Vec<u32> = Vec::new();
    for (t, &root) in roots.iter().enumerate() {
        let b = root as usize;
        let e = roots.get(t + 1).map(|&r| r as usize).unwrap_or(n_nodes);
        // Strict monotonicity and bounds: every span is non-empty and the
        // last one ends exactly at the slab's end.
        if b >= e || e > n_nodes {
            return Err(SnapshotError::Invariant(
                "root offsets must be strictly monotone and in bounds",
            ));
        }
        levels.clear();
        levels.resize(e - b, 0);
        // `next` is the index the BFS splice would hand to the next child
        // pair; scanning in index order replays the allocation exactly.
        let mut next = b + 1;
        let mut depth = 0u32;
        for i in b..e {
            let level = levels[i - b];
            depth = depth.max(level);
            let node = nodes[i];
            let left = node.left() as usize;
            if left == i {
                // Leaf: exact `+∞` marker, feature 0, finite probability.
                if node.value != f64::INFINITY {
                    return Err(SnapshotError::Invariant(
                        "leaf threshold must be exactly +inf",
                    ));
                }
                if node.feature() != 0 {
                    return Err(SnapshotError::Invariant("leaf feature must be zero"));
                }
                if !leaves[i].is_finite() {
                    return Err(SnapshotError::Invariant("leaf probability must be finite"));
                }
            } else {
                // Split: children are the next adjacent pair of this span.
                if left != next || next + 2 > e {
                    return Err(SnapshotError::Invariant(
                        "split children must be the next adjacent pair in the tree span",
                    ));
                }
                next += 2;
                if node.feature() as usize >= n_features {
                    return Err(SnapshotError::Invariant("split feature out of range"));
                }
                if !node.value.is_finite() {
                    return Err(SnapshotError::Invariant("split threshold must be finite"));
                }
                if leaves[i].to_bits() != 0 {
                    return Err(SnapshotError::Invariant(
                        "interior leaf-table slot must be exactly +0.0",
                    ));
                }
                levels[left - b] = level + 1;
                levels[left + 1 - b] = level + 1;
            }
        }
        if next != e {
            return Err(SnapshotError::Invariant(
                "tree span has unreachable or missing nodes",
            ));
        }
        if depths[t] != depth {
            return Err(SnapshotError::Invariant(
                "stored depth disagrees with the recomputed depth",
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Convenience entry points
// ---------------------------------------------------------------------------

/// Serialize an f64 [`Forest`] as one snapshot slab.
pub fn write_forest(forest: &Forest) -> Vec<u8> {
    let mut w = SnapshotWriter::new(PayloadKind::Forest);
    w.push_forest(forest);
    w.finish()
}

/// Load and validate an f64 [`Forest`] snapshot.
pub fn read_forest(bytes: &[u8]) -> Result<Forest, SnapshotError> {
    SnapshotReader::parse(bytes, PayloadKind::Forest)?.read_forest()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::RawNode;

    fn sample_forest() -> Forest {
        let mut f = Forest::new(3);
        f.push_raw_tree(&[
            RawNode::Split {
                feature: 1,
                threshold: 0.5,
                left: 1,
                right: 2,
            },
            RawNode::Leaf { value: 0.25 },
            RawNode::Split {
                feature: 2,
                threshold: -1.5,
                left: 3,
                right: 4,
            },
            RawNode::Leaf { value: 0.75 },
            RawNode::Leaf { value: 1.0 },
        ]);
        f.push_raw_tree(&[RawNode::Leaf { value: 0.5 }]);
        f
    }

    #[test]
    fn forest_round_trip_is_bit_identical() {
        let f = sample_forest();
        let bytes = write_forest(&f);
        let g = read_forest(&bytes).expect("valid snapshot");
        assert_eq!(write_forest(&g), bytes, "re-encode is canonical");
        assert_eq!(g.n_trees(), f.n_trees());
        assert_eq!(g.n_features(), f.n_features());
        for row in [[0.0, 0.0, 0.0], [9.0, 1.0, -2.0], [-3.0, 0.4, 7.0]] {
            for t in 0..f.n_trees() {
                assert_eq!(
                    f.predict_row(t, &row).to_bits(),
                    g.predict_row(t, &row).to_bits()
                );
            }
        }
    }

    #[test]
    fn empty_forest_round_trips() {
        let f = Forest::new(4);
        let g = read_forest(&write_forest(&f)).expect("empty forest is valid");
        assert_eq!(g.n_trees(), 0);
        assert_eq!(g.n_features(), 4);
    }

    #[test]
    fn rejects_bad_magic_version_endianness_kind() {
        let bytes = write_forest(&sample_forest());
        let mut b = bytes.clone();
        b[0] ^= 0xff;
        assert_eq!(read_forest(&b).unwrap_err(), SnapshotError::BadMagic);
        let mut b = bytes.clone();
        b[8] = 9;
        assert_eq!(
            read_forest(&b).unwrap_err(),
            SnapshotError::UnsupportedVersion { got: 9 }
        );
        // A big-endian writer would lay the tag down as [0x12, 0x34],
        // which reads back as 0x3412 on this side.
        let mut b = bytes.clone();
        b[10] = 0x12;
        b[11] = 0x34;
        assert_eq!(
            read_forest(&b).unwrap_err(),
            SnapshotError::WrongEndianness { got: 0x3412 }
        );
        // A learner-stack slab fed to the forest loader: structurally
        // valid sections, the wrong payload.
        let mut w = SnapshotWriter::new(PayloadKind::LearnerStack);
        w.push_forest(&sample_forest());
        assert_eq!(
            read_forest(&w.finish()).unwrap_err(),
            SnapshotError::WrongKind {
                expected: PayloadKind::Forest as u16,
                got: PayloadKind::LearnerStack as u16
            }
        );
        // An unassigned payload kind is refused the same way.
        let mut b = bytes.clone();
        b[12..14].copy_from_slice(&2u16.to_le_bytes());
        assert_eq!(
            read_forest(&b).unwrap_err(),
            SnapshotError::WrongKind {
                expected: PayloadKind::Forest as u16,
                got: 2
            }
        );
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = write_forest(&sample_forest());
        for cut in 0..bytes.len() {
            let err = read_forest(&bytes[..cut]).expect_err("truncated slab must fail");
            // Any typed error is acceptable; truncation inside the header
            // may surface as a checksum or magic error depending on where
            // the cut lands.
            let _ = err;
        }
    }

    #[test]
    fn rejects_single_bit_flips_anywhere() {
        // Every byte of the slab is load-bearing: header fields are
        // checked field by field, the table is covered by the table
        // checksum, and every payload byte by its section checksum.
        let bytes = write_forest(&sample_forest());
        for at in 0..bytes.len() {
            let mut b = bytes.clone();
            b[at] ^= 0x01;
            assert!(
                read_forest(&b).is_err(),
                "flip at byte {at} must be detected"
            );
        }
    }

    #[test]
    fn rejects_structural_corruption_with_valid_checksums() {
        // Re-encode a tampered arena through the writer, so every checksum
        // is valid and only the *structural* validation can catch it.
        let f = sample_forest();
        let (nodes, leaves, roots, depths) = f.arena_parts();

        // Child index escaping its tree span.
        let mut bad = nodes.to_vec();
        let (vb, _) = bad[2].to_bits();
        bad[2] = ArenaNode::from_bits(vb, 200 | (2u64 << 32));
        let err = rebuild(&bad, leaves, roots, depths, 3).expect_err("oob child");
        assert!(matches!(err, SnapshotError::Invariant(_)));

        // Split feature out of range.
        let mut bad = nodes.to_vec();
        let (vb, pk) = bad[0].to_bits();
        bad[0] = ArenaNode::from_bits(vb, (pk & 0xffff_ffff) | (7u64 << 32));
        let err = rebuild(&bad, leaves, roots, depths, 3).expect_err("bad feature");
        assert_eq!(err, SnapshotError::Invariant("split feature out of range"));

        // NaN threshold on a split.
        let mut bad = nodes.to_vec();
        let (_, pk) = bad[0].to_bits();
        bad[0] = ArenaNode::from_bits(f64::NAN.to_bits(), pk);
        let err = rebuild(&bad, leaves, roots, depths, 3).expect_err("nan threshold");
        assert_eq!(
            err,
            SnapshotError::Invariant("split threshold must be finite")
        );

        // Leaf that does not self-reference breaks the adjacency scan.
        let mut bad = nodes.to_vec();
        let (vb, _) = bad[1].to_bits();
        bad[1] = ArenaNode::from_bits(vb, 0);
        assert!(rebuild(&bad, leaves, roots, depths, 3).is_err());

        // Non-monotone roots.
        let err = rebuild(nodes, leaves, &[0, 0], depths, 3).expect_err("dup root");
        assert!(matches!(err, SnapshotError::Invariant(_)));

        // Wrong stored depth.
        let err = rebuild(nodes, leaves, roots, &[7, 0], 3).expect_err("bad depth");
        assert_eq!(
            err,
            SnapshotError::Invariant("stored depth disagrees with the recomputed depth")
        );

        // Non-finite leaf probability.
        let mut badl = leaves.to_vec();
        badl[1] = f64::NAN;
        assert!(rebuild(nodes, &badl, roots, depths, 3).is_err());
    }

    /// Encode raw arena parts through the writer (valid checksums) and run
    /// the full decoder.
    fn rebuild(
        nodes: &[ArenaNode],
        leaves: &[f64],
        roots: &[u32],
        depths: &[u32],
        n_features: usize,
    ) -> Result<Forest, SnapshotError> {
        let mut w = SnapshotWriter::new(PayloadKind::Forest);
        w.push_u64_section(
            section::META,
            &[n_features as u64, nodes.len() as u64, roots.len() as u64],
        );
        let mut nb = Vec::new();
        for n in nodes {
            let (vb, pk) = n.to_bits();
            nb.extend_from_slice(&vb.to_le_bytes());
            nb.extend_from_slice(&pk.to_le_bytes());
        }
        w.push_section(section::NODES, nb);
        w.push_f64_section(section::LEAVES, leaves);
        w.push_u32s(section::ROOTS, roots);
        w.push_u32s(section::DEPTHS, depths);
        read_forest(&w.finish())
    }

    #[test]
    fn error_display_is_informative() {
        let e = SnapshotError::TooShort { need: 100, got: 7 };
        assert!(e.to_string().contains("100"));
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
        assert!(SnapshotError::ChecksumMismatch { section: 2 }
            .to_string()
            .contains("checksum"));
    }
}
