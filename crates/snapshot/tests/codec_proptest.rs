//! Property tests for the snapshot codec: encode∘decode = id for every
//! value shape, decode totality on byte soup, and corruption detection at
//! the frame layer for arbitrary frame sets. The frame layer is also held
//! to a byte-identity oracle: a writer and reader kept here, built straight
//! from the format's definition (each seal folded from words assembled a
//! byte at a time, the trailer recomputed from the header and the seals
//! collected along the way).

use autodbaas_snapshot::{
    decode_from_slice, encode_to_vec, fnv1a, fnv1a_start, FrameReader, FrameWriter, Snap,
    SnapError, SnapReader, MAGIC, TRAILER_TAG, VERSION,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// A frame's seal by definition: start from the FNV-1a offset xor the
/// length, then for each 8-byte group, its bytes placed little-endian in a
/// word with missing bytes left zero, `h = (h ^ w) * 0x9e3779b97f4a7c15`
/// and `h ^= h >> 32`.
fn ref_seal(bytes: &[u8]) -> u64 {
    let mut h = fnv1a_start() ^ bytes.len() as u64;
    let mut at = 0;
    while at < bytes.len() {
        let mut w = 0u64;
        for k in 0..8 {
            if at + k < bytes.len() {
                w |= u64::from(bytes[at + k]) << (8 * k);
            }
        }
        h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 32;
        at += 8;
    }
    h
}

/// The trailer by definition: FNV-1a over the 12 header bytes, then each
/// frame's 8 seal bytes in order.
fn ref_trailer(header: &[u8], seals: &[u64]) -> u64 {
    seals.iter().fold(fnv1a(fnv1a_start(), header), |h, s| {
        fnv1a(h, &s.to_le_bytes())
    })
}

/// Reference writer: each frame assembled and sealed on its own, the
/// trailer computed by `finish` from the header and the collected seals.
struct RefWriter {
    out: Vec<u8>,
    seals: Vec<u64>,
}

impl RefWriter {
    fn new() -> Self {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&VERSION.to_le_bytes());
        Self {
            out,
            seals: Vec::new(),
        }
    }

    fn frame(&mut self, tag: u16, payload: &[u8]) {
        let mut sealed = tag.to_le_bytes().to_vec();
        sealed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        sealed.extend_from_slice(payload);
        let seal = ref_seal(&sealed);
        self.out.extend_from_slice(&sealed);
        self.out.extend_from_slice(&seal.to_le_bytes());
        self.seals.push(seal);
    }

    fn frame_snap<T: Snap>(&mut self, tag: u16, value: &T) {
        self.frame(tag, &encode_to_vec(value));
    }

    fn finish(mut self) -> Vec<u8> {
        let file_hash = ref_trailer(&self.out[..12], &self.seals);
        self.frame(TRAILER_TAG, &file_hash.to_le_bytes());
        self.out
    }
}

/// Reference reader: every seal recomputed on its own, the trailer checked
/// against a fresh hash of the header and the seals of the frames before it.
struct RefReader<'a> {
    buf: &'a [u8],
    pos: usize,
    seals: Vec<u64>,
    finished: bool,
}

impl<'a> RefReader<'a> {
    fn new(data: &'a [u8]) -> Result<Self, SnapError> {
        if data.len() < 12 {
            return Err(SnapError::Truncated {
                needed: 12,
                have: data.len(),
            });
        }
        if data[..8] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(SnapError::UnsupportedVersion(version));
        }
        Ok(Self {
            buf: data,
            pos: 12,
            seals: Vec::new(),
            finished: false,
        })
    }

    fn read_raw_frame(&mut self) -> Result<(u16, &'a [u8]), SnapError> {
        let remaining = self.buf.len() - self.pos;
        if remaining < 18 {
            return Err(SnapError::MissingTrailer);
        }
        let at = self.pos;
        let tag = u16::from_le_bytes([self.buf[at], self.buf[at + 1]]);
        let len = u64::from_le_bytes(self.buf[at + 2..at + 10].try_into().unwrap()) as usize;
        if remaining < 18 + len {
            return Err(SnapError::Truncated {
                needed: 18 + len,
                have: remaining,
            });
        }
        let payload = &self.buf[at + 10..at + 10 + len];
        let stored = u64::from_le_bytes(self.buf[at + 10 + len..at + 18 + len].try_into().unwrap());
        if ref_seal(&self.buf[at..at + 10 + len]) != stored {
            return Err(SnapError::ChecksumMismatch { tag });
        }
        self.seals.push(stored);
        self.pos += 18 + len;
        Ok((tag, payload))
    }

    fn next_frame(&mut self) -> Result<Option<(u16, &'a [u8])>, SnapError> {
        if self.finished {
            return Ok(None);
        }
        let (tag, payload) = self.read_raw_frame()?;
        if tag != TRAILER_TAG {
            return Ok(Some((tag, payload)));
        }
        if payload.len() != 8 {
            return Err(SnapError::Malformed("trailer payload"));
        }
        let stored = u64::from_le_bytes(payload.try_into().unwrap());
        let body_seals = &self.seals[..self.seals.len() - 1];
        if stored != ref_trailer(&self.buf[..12], body_seals) {
            return Err(SnapError::TrailerMismatch);
        }
        if self.pos != self.buf.len() {
            return Err(SnapError::TrailingBytes {
                extra: self.buf.len() - self.pos,
            });
        }
        self.finished = true;
        Ok(None)
    }
}

/// Everything a reader yields: the frames in order, then how it stopped.
type Outcome<'a> = (Vec<(u16, &'a [u8])>, Result<(), SnapError>);

fn drain<'a>(mut next: impl FnMut() -> Result<Option<(u16, &'a [u8])>, SnapError>) -> Outcome<'a> {
    let mut frames = Vec::new();
    loop {
        match next() {
            Ok(Some(f)) => frames.push(f),
            Ok(None) => return (frames, Ok(())),
            Err(e) => return (frames, Err(e)),
        }
    }
}

fn read_new(bytes: &[u8]) -> Outcome<'_> {
    match FrameReader::new(bytes) {
        Ok(mut fr) => drain(|| fr.next_frame()),
        Err(e) => (Vec::new(), Err(e)),
    }
}

fn read_ref(bytes: &[u8]) -> Outcome<'_> {
    match RefReader::new(bytes) {
        Ok(mut fr) => drain(|| fr.next_frame()),
        Err(e) => (Vec::new(), Err(e)),
    }
}

/// Write the same frame list through both writers: `kinds[i]` picks a raw
/// `frame`, a `frame_snap` of the bytes, or a `frame_snap` of a tuple.
fn write_both(kinds: &[u8], tags: &[u16], payloads: &[Vec<u8>]) -> (Vec<u8>, Vec<u8>) {
    let mut fw = FrameWriter::new();
    let mut rw = RefWriter::new();
    for ((&kind, &tag), p) in kinds.iter().zip(tags).zip(payloads) {
        match kind {
            0 => {
                fw.frame(tag, p);
                rw.frame(tag, p);
            }
            1 => {
                fw.frame_snap(tag, p);
                rw.frame_snap(tag, p);
            }
            _ => {
                let v = (u64::from(tag), p.clone(), p.len() % 2 == 0);
                fw.frame_snap(tag, &v);
                rw.frame_snap(tag, &v);
            }
        }
    }
    (fw.finish(), rw.finish())
}

/// A length prefix may claim at most as many elements as bytes remain,
/// but each element here is a megabyte: reserving the claim up front
/// would ask the allocator for a terabyte. Decode must reserve by what
/// the input can back and fail with a typed truncation instead. (Runs on
/// a thread with a large stack: a megabyte array is a stack value.)
#[test]
fn length_prefix_cannot_reserve_beyond_the_input() {
    const N: usize = 1 << 20;
    let decode = || {
        let claim = N - 1;
        let mut bytes = (claim as u64).to_le_bytes().to_vec();
        bytes.resize(8 + claim, 0);
        decode_from_slice::<Vec<[u8; N]>>(&bytes).map(|v| v.len())
    };
    let outcome = std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(decode)
        .unwrap()
        .join()
        .unwrap();
    assert!(matches!(outcome, Err(SnapError::Truncated { .. })));
}

fn round_trip<T: Snap + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = encode_to_vec(v);
    let back: T = decode_from_slice(&bytes).expect("decode of freshly encoded value");
    prop_assert_eq!(&back, v);
    // Canonical form: re-encoding the decoded value is byte-identical.
    prop_assert_eq!(encode_to_vec(&back), bytes);
}

proptest! {
    #[test]
    fn scalars_round_trip(a in 0u64..u64::MAX, b in i64::MIN..i64::MAX, c in 0u32..u32::MAX,
                          d in 0u8..=1, e in 0u8..=255, f in 0u16..u16::MAX) {
        round_trip(&a);
        round_trip(&b);
        round_trip(&c);
        round_trip(&(d == 1));
        round_trip(&e);
        round_trip(&f);
    }

    /// f64 round-trips through raw bits — including negative zero, infs
    /// and arbitrary NaN payloads (compared as bits).
    #[test]
    fn f64_bits_round_trip(bits in 0u64..u64::MAX) {
        let v = f64::from_bits(bits);
        let back: f64 = decode_from_slice(&encode_to_vec(&v)).unwrap();
        prop_assert_eq!(back.to_bits(), bits);
    }

    #[test]
    fn strings_and_vecs_round_trip(
        chars in prop::collection::vec(32u8..127, 0..40),
        v in prop::collection::vec(0u64..u64::MAX, 0..32),
        fbits in prop::collection::vec(0u64..u64::MAX, 0..32),
    ) {
        let s = String::from_utf8(chars).expect("ascii");
        round_trip(&s);
        round_trip(&v);
        let fv: Vec<f64> = fbits.iter().map(|b| f64::from_bits(*b)).collect();
        let back: Vec<f64> = decode_from_slice(&encode_to_vec(&fv)).unwrap();
        prop_assert_eq!(back.len(), fv.len());
        for (a, b) in back.iter().zip(&fv) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn containers_round_trip(
        keys in prop::collection::vec(0u64..u64::MAX, 0..24),
        vals in prop::collection::vec(i64::MIN..i64::MAX, 24),
        set in prop::collection::vec(0u32..u32::MAX, 0..24),
        dq in prop::collection::vec(0u16..u16::MAX, 0..24),
        opt_tag in 0u8..=1, opt_val in 0u64..u64::MAX,
    ) {
        let pairs: Vec<(u64, i64)> = keys.iter().copied().zip(vals.iter().copied()).collect();
        let hm: HashMap<u64, i64> = pairs.iter().copied().collect();
        let bm: BTreeMap<u64, i64> = pairs.iter().copied().collect();
        let hs: HashSet<u32> = set.iter().copied().collect();
        let vd: VecDeque<u16> = dq.into_iter().collect();
        let opt: Option<u64> = (opt_tag == 1).then_some(opt_val);
        round_trip(&hm);
        round_trip(&bm);
        round_trip(&hs);
        round_trip(&vd);
        round_trip(&opt);
        round_trip(&(pairs.clone(), opt));
    }

    /// Decode totality: arbitrary byte soup produces a value or a typed
    /// error — never a panic, never an absurd allocation.
    #[test]
    fn decode_never_panics_on_soup(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        let _ = decode_from_slice::<Vec<u64>>(&bytes);
        let _ = decode_from_slice::<HashMap<u64, u64>>(&bytes);
        let _ = decode_from_slice::<Vec<(u64, String)>>(&bytes);
        let _ = decode_from_slice::<Option<Vec<f64>>>(&bytes);
        let mut r = SnapReader::new(&bytes);
        let _ = r.get_str();
        let _ = FrameReader::new(&bytes).and_then(|fr| fr.read_all());
    }

    /// Frame-layer integrity: any single-byte XOR of a sealed multi-frame
    /// file is detected.
    #[test]
    fn frame_corruption_always_detected(
        payloads in prop::collection::vec(prop::collection::vec(0u8..=255, 0..48), 1..5),
        flip in 0usize..usize::MAX,
        xor in 1u8..=255,
    ) {
        let mut fw = FrameWriter::new();
        for (i, p) in payloads.iter().enumerate() {
            fw.frame(i as u16, p);
        }
        let mut bytes = fw.finish();
        let idx = flip % bytes.len();
        bytes[idx] ^= xor;
        let outcome = FrameReader::new(&bytes).and_then(|fr| fr.read_all());
        prop_assert!(outcome.is_err(), "corrupting byte {} went undetected", idx);
    }

    /// The typed multi-frame layout the fleet-pair checkpoints use
    /// (`frame_snap` per arm, `next_frame` + `decode_from_slice` back):
    /// both payloads survive, in order, under arbitrary tags and values.
    #[test]
    fn typed_frame_pairs_round_trip(
        tag_a in 0u16..u16::MAX, tag_b in 0u16..u16::MAX,
        a in prop::collection::vec(0u64..u64::MAX, 0..32),
        b_keys in prop::collection::vec(0u32..u32::MAX, 0..32),
        b_vals in prop::collection::vec(i64::MIN..i64::MAX, 32),
    ) {
        let b: Vec<(u32, i64)> = b_keys.iter().copied().zip(b_vals.iter().copied()).collect();
        let mut fw = FrameWriter::new();
        fw.frame_snap(tag_a, &a);
        fw.frame_snap(tag_b, &b);
        let bytes = fw.finish();
        let mut fr = FrameReader::new(&bytes).expect("header");
        let (t, payload) = fr.next_frame().expect("frame").expect("first frame");
        prop_assert_eq!(t, tag_a);
        prop_assert_eq!(decode_from_slice::<Vec<u64>>(payload).expect("arm A"), a);
        let (t, payload) = fr.next_frame().expect("frame").expect("second frame");
        prop_assert_eq!(t, tag_b);
        prop_assert_eq!(decode_from_slice::<Vec<(u32, i64)>>(payload).expect("arm B"), b);
        prop_assert!(fr.next_frame().expect("tail").is_none());
    }

    /// Truncating a sealed file anywhere is detected.
    #[test]
    fn frame_truncation_always_detected(
        payload in prop::collection::vec(0u8..=255, 0..64),
        cut in 0usize..usize::MAX,
    ) {
        let mut fw = FrameWriter::new();
        fw.frame(1, &payload);
        let bytes = fw.finish();
        let cut = cut % bytes.len();
        let outcome = FrameReader::new(&bytes[..cut]).and_then(|fr| fr.read_all());
        prop_assert!(outcome.is_err(), "truncation at {} went undetected", cut);
    }

    /// Byte-identity oracle, writer side: the library's writer produces
    /// exactly the reference writer's bytes for any mix of raw and typed
    /// frames.
    #[test]
    fn writer_matches_reference_bytes(
        kinds in prop::collection::vec(0u8..=2, 0..5),
        tags in prop::collection::vec(0u16..TRAILER_TAG, 5),
        payloads in prop::collection::vec(prop::collection::vec(0u8..=255, 0..40), 5),
    ) {
        let (new, reference) = write_both(&kinds, &tags, &payloads);
        prop_assert_eq!(new, reference);
    }

    /// Byte-identity oracle, reader side: under every single-byte XOR,
    /// every truncation point and bytes appended after the trailer, the
    /// library's reader yields the same frames and stops with the same
    /// error as the reference reader.
    #[test]
    fn reader_matches_reference_under_damage(
        kinds in prop::collection::vec(0u8..=2, 0..4),
        tags in prop::collection::vec(0u16..TRAILER_TAG, 4),
        payloads in prop::collection::vec(prop::collection::vec(0u8..=255, 0..24), 4),
        xor in 1u8..=255,
        tail in prop::collection::vec(0u8..=255, 1..9),
    ) {
        let (bytes, _) = write_both(&kinds, &tags, &payloads);
        prop_assert_eq!(read_new(&bytes), read_ref(&bytes));
        prop_assert!(read_new(&bytes).1.is_ok());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= xor;
            prop_assert_eq!(read_new(&bad), read_ref(&bad), "xor {:#x} at byte {}", xor, i);
        }
        for cut in 0..bytes.len() {
            prop_assert_eq!(read_new(&bytes[..cut]), read_ref(&bytes[..cut]), "cut at {}", cut);
        }
        let mut long = bytes.clone();
        long.extend_from_slice(&tail);
        prop_assert_eq!(read_new(&long), read_ref(&long));
    }
}
