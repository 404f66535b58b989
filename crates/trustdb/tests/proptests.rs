//! Property-based tests over the trustdb primitives.

use proptest::prelude::*;
use trustdb::hash::{crc32c, sha256, Digest, Sha256};
use trustdb::merkle::MerkleTree;
use trustdb::store::{MemoryBackend, ObjectStore};
use trustdb::wal::{SyncPolicy, Wal};

proptest! {
    /// Incremental hashing over arbitrary split points equals one-shot.
    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                         splits in proptest::collection::vec(0usize..2048, 0..8)) {
        let whole = sha256(&data);
        let mut cuts: Vec<usize> = splits.into_iter().map(|s| s % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0;
        for c in cuts {
            h.update(&data[prev..c]);
            prev = c;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), whole);
    }

    /// Digest hex round-trips for arbitrary digests.
    #[test]
    fn digest_hex_round_trip(bytes in proptest::array::uniform32(any::<u8>())) {
        let d = Digest(bytes);
        prop_assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
    }

    /// CRC detects any single-bit flip (guaranteed for CRC by construction,
    /// exercised here end-to-end).
    #[test]
    fn crc32c_single_bit_flip_detected(data in proptest::collection::vec(any::<u8>(), 1..512),
                                       pos in any::<usize>(), bit in 0u8..8) {
        let before = crc32c(&data);
        let mut mutated = data.clone();
        let idx = pos % mutated.len();
        mutated[idx] ^= 1 << bit;
        prop_assert_ne!(before, crc32c(&mutated));
    }

    /// Every leaf of a random batch is provable; no leaf proves under a
    /// different leaf's data.
    #[test]
    fn merkle_inclusion_sound_and_complete(
        leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..40)
    ) {
        let tree = MerkleTree::from_leaves(leaves.iter(), &itrust_obs::ObsCtx::null()).unwrap();
        let root = tree.root();
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i).unwrap();
            prop_assert!(proof.verify(leaf, &root).is_ok());
            // A proof for leaf i must not validate different content,
            // unless another leaf is byte-identical.
            let mut forged = leaf.clone();
            forged.push(0xAB);
            prop_assert!(proof.verify(&forged, &root).is_err());
        }
    }

    /// Store round-trip: what you put is what you get, for arbitrary blobs.
    #[test]
    fn store_round_trip(blobs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..256), 1..30)) {
        let store = ObjectStore::new(MemoryBackend::new());
        let ids: Vec<Digest> = blobs.iter().map(|b| store.put(b.clone()).unwrap()).collect();
        for (id, blob) in ids.iter().zip(&blobs) {
            prop_assert_eq!(&store.get(id).unwrap()[..], blob.as_slice());
            prop_assert!(store.verify(id).unwrap());
        }
        // Dedup: object count equals number of distinct blobs.
        let distinct: std::collections::HashSet<_> = blobs.iter().collect();
        prop_assert_eq!(store.object_count(), distinct.len());
    }

    /// WAL replay returns exactly the appended frames in order, for
    /// arbitrary batch shapes.
    #[test]
    fn wal_replay_exact(batches in proptest::collection::vec(
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..128), 0..6), 0..6)
    ) {
        let mut path = std::env::temp_dir();
        path.push(format!("trustdb-prop-wal-{}-{:x}", std::process::id(),
            rand::random::<u64>()));
        let _ = std::fs::remove_file(&path);
        let wal = Wal::open(&path, SyncPolicy::Never).unwrap();
        let mut expected = Vec::new();
        for batch in &batches {
            wal.append_batch(batch.iter().map(|v| v.as_slice())).unwrap();
            expected.extend(batch.iter().cloned());
        }
        let replay = wal.replay().unwrap();
        prop_assert_eq!(replay.frames, expected);
        prop_assert!(replay.corrupt_tail_at.is_none());
        std::fs::remove_file(&path).ok();
    }

    /// Replay over arbitrary single-byte corruption at any offset never
    /// panics, returns an intact prefix of the original frames, and
    /// truncates exactly at a frame boundary (never mid-frame, never after
    /// the damage).
    #[test]
    fn wal_single_byte_corruption_truncates_at_frame_boundary(
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..8),
        pos in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let mut path = std::env::temp_dir();
        path.push(format!("trustdb-prop-flip-{}-{:x}", std::process::id(),
            rand::random::<u64>()));
        let _ = std::fs::remove_file(&path);
        {
            let wal = Wal::open(&path, SyncPolicy::Always).unwrap();
            for f in &frames {
                wal.append(f).unwrap();
            }
        }
        // Frame boundaries: byte offset where frame i ends.
        let mut boundaries = vec![0u64];
        for f in &frames {
            boundaries.push(boundaries.last().unwrap() + 8 + f.len() as u64);
        }
        let total = *boundaries.last().unwrap() as usize;
        // Corrupt one byte anywhere in the file (xor != 0 guarantees a
        // real change).
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = pos % total;
        bytes[idx] ^= xor;
        std::fs::write(&path, &bytes).unwrap();
        // Open exercises detection + recovery truncation.
        let wal = Wal::open(&path, SyncPolicy::Never).unwrap();
        let replay = wal.replay().unwrap();
        // The survivors are exactly the frames before the damaged one.
        let k = replay.frames.len();
        let damaged_frame = boundaries.iter().position(|b| idx < *b as usize).unwrap() - 1;
        prop_assert_eq!(k, damaged_frame);
        for (got, want) in replay.frames.iter().zip(&frames) {
            prop_assert_eq!(got, want);
        }
        // Recovery cut the file exactly at the last intact frame boundary.
        prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), boundaries[k]);
        prop_assert!(replay.corrupt_tail_at.is_none());
        // The log is usable again: appends after recovery replay cleanly.
        wal.append(b"post-recovery").unwrap();
        let replay = wal.replay().unwrap();
        prop_assert_eq!(replay.frames.len(), k + 1);
        std::fs::remove_file(&path).ok();
    }

    /// Appending arbitrary garbage bytes after valid frames never corrupts
    /// the valid prefix: replay recovers every intact frame.
    #[test]
    fn wal_garbage_tail_recovery(
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..5),
        garbage in proptest::collection::vec(any::<u8>(), 1..7)
    ) {
        use std::io::Write;
        let mut path = std::env::temp_dir();
        path.push(format!("trustdb-prop-tail-{}-{:x}", std::process::id(),
            rand::random::<u64>()));
        let _ = std::fs::remove_file(&path);
        {
            let wal = Wal::open(&path, SyncPolicy::Always).unwrap();
            for f in &frames {
                wal.append(f).unwrap();
            }
        }
        {
            let mut file = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(&garbage).unwrap();
        }
        // Reopen: must recover at least all original frames (garbage < 8
        // bytes can never form a valid frame header + payload).
        let wal = Wal::open(&path, SyncPolicy::Never).unwrap();
        let replay = wal.replay().unwrap();
        prop_assert_eq!(replay.frames.len(), frames.len());
        for (got, want) in replay.frames.iter().zip(&frames) {
            prop_assert_eq!(got, want);
        }
        std::fs::remove_file(&path).ok();
    }
}
