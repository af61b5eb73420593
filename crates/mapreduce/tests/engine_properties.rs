//! Property-based tests of the MapReduce engine: codec roundtrips for all
//! record shapes, shuffle-grouping correctness, determinism across worker
//! counts, and counter conservation laws.

mod common;

use common::{CountReduce, WordOne};
use mrsim::{ClusterConfig, Engine, InputBinding, JobSpec, Rec};
use proptest::prelude::{prop, prop_assert, prop_assert_eq, proptest};
use proptest::strategy::Strategy;
use std::sync::Arc;

/// A word count of the DFS file `in` into `out`.
fn word_count(name: &str, reduce_tasks: usize) -> JobSpec {
    let words = InputBinding { file: "in".into(), mapper: Arc::new(WordOne) };
    JobSpec::map_reduce(name, vec![words], Arc::new(CountReduce), reduce_tasks, "out")
}

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(vec!['a', 'B', '0', ' ', '\t', '"', '\\', 'é', '\u{1F980}']),
        0..20,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #[test]
    fn codec_roundtrip_string(s in arb_string()) {
        prop_assert_eq!(String::from_bytes(&s.to_bytes()).unwrap(), s);
    }

    #[test]
    fn codec_roundtrip_compound(
        v in prop::collection::vec((arb_string(), 0u64..u64::MAX), 0..10)
    ) {
        let rec: Vec<(String, u64)> = v;
        let back = Vec::<(String, u64)>::from_bytes(&rec.to_bytes()).unwrap();
        prop_assert_eq!(back, rec);
    }

    #[test]
    fn codec_roundtrip_nested(
        v in prop::collection::vec(prop::collection::vec(arb_string(), 0..4), 0..6)
    ) {
        let back = Vec::<Vec<String>>::from_bytes(&v.to_bytes()).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn canonical_encoding_for_grouping(a in arb_string(), b in arb_string()) {
        // Equal values encode equal; distinct values encode distinct —
        // the property shuffle grouping relies on.
        prop_assert_eq!(a == b, a.to_bytes() == b.to_bytes());
    }

    #[test]
    fn truncated_buffers_error_not_panic(s in arb_string(), cut in 0usize..8) {
        let enc = s.to_bytes();
        let cut = cut.min(enc.len());
        let truncated = &enc[..enc.len() - cut];
        // Either decodes to the original (cut == 0) or errors; never panics.
        match String::from_bytes(truncated) {
            Ok(v) => prop_assert_eq!(v, s),
            Err(_) => prop_assert!(cut > 0),
        }
    }

    #[test]
    fn wordcount_matches_hashmap_and_is_deterministic(
        words in prop::collection::vec(prop::sample::select(vec!["a", "b", "c", "dd", "eee"]), 0..60),
        workers in 1usize..6,
        reducers in 1usize..5,
    ) {
        let mut expected: std::collections::BTreeMap<String, u64> = Default::default();
        for w in &words {
            *expected.entry(w.to_string()).or_insert(0) += 1;
        }

        let engine = Engine::new(ClusterConfig::default().with_workers(workers)).unwrap();
        engine.put_records("in", words.iter().map(|w| w.to_string())).unwrap();
        let stats = engine.run_job(&word_count("wc", reducers)).unwrap();
        let mut got: Vec<String> = engine.read_records("out").unwrap();
        got.sort();
        let expected: Vec<String> = expected.iter().map(|(w, n)| format!("{w}:{n}")).collect();
        prop_assert_eq!(got, expected);

        // Conservation laws.
        prop_assert_eq!(stats.check_invariants(), Ok(()));
        prop_assert_eq!(stats.input_records, words.len() as u64);
        prop_assert_eq!(stats.reduce_groups, stats.output_records);
        prop_assert_eq!(stats.reduce_tasks, reducers as u64);
    }

    #[test]
    fn byte_identical_across_worker_counts(
        words in prop::collection::vec(
            prop::sample::select(vec!["a", "b", "c", "dd", "eee", "ffff"]),
            0..80,
        ),
        with_faults in 0usize..2,
    ) {
        // The engine's core invariant: the same job over the same input
        // yields byte-identical output files and identical counters for
        // every worker count — with and without fault injection (retries
        // must not perturb results).
        let run = |workers: usize| {
            let mut config = ClusterConfig::default().with_workers(workers);
            if with_faults == 1 {
                config = config.with_faults(mrsim::FaultConfig::with_probability(0.3, 7));
            }
            let engine = Engine::new(config).unwrap();
            engine.put_records("in", words.iter().map(|w| w.to_string())).unwrap();
            let stats = engine.run_job(&word_count("det", 3)).unwrap();
            let file = engine.hdfs().lock().get("out").unwrap();
            let records: Vec<Vec<u8>> = file.iter().map(<[u8]>::to_vec).collect();
            (format!("{stats:?}"), records, file.text_bytes)
        };
        let baseline = run(1);
        for workers in [4usize, 8] {
            let other = run(workers);
            prop_assert_eq!(&other.1, &baseline.1, "output bytes diverged at {} workers", workers);
            prop_assert_eq!(other.2, baseline.2);
            prop_assert_eq!(&other.0, &baseline.0, "counters diverged at {} workers", workers);
        }
    }

    #[test]
    fn partition_attribution_conserves_bytes(
        words in prop::collection::vec(
            prop::sample::select(vec!["k1", "k2", "k3", "k4", "k5"]),
            1..50,
        ),
        reducers in 1usize..6,
    ) {
        let engine = Engine::unbounded();
        engine.put_records("in", words.iter().map(|w| w.to_string())).unwrap();
        let stats = engine.run_job(&word_count("attr", reducers)).unwrap();
        prop_assert_eq!(stats.reduce_tasks, reducers as u64);
        prop_assert_eq!(stats.check_invariants(), Ok(()));
        prop_assert!(stats.max_partition_shuffle_bytes() <= stats.map_output_bytes);
        prop_assert!(stats.reduce_skew() >= 1.0 - 1e-9);
        prop_assert!(stats.reduce_skew() <= reducers as f64 + 1e-9);
    }

    #[test]
    fn replication_scales_write_accounting(repl in 1u32..5) {
        let config = ClusterConfig {
            nodes: 1,
            disk_per_node: u64::MAX / 8,
            replication: repl,
            ..Default::default()
        };
        let engine = Engine::new(config).unwrap();
        engine.put_records("in", ["x".to_string(), "y".to_string()]).unwrap();
        let stats = engine.run_job(&word_count("j", 1)).unwrap();
        prop_assert_eq!(stats.hdfs_write_bytes, stats.output_text_bytes * u64::from(repl));
    }
}

mod fault_injection {
    use super::*;
    use mrsim::FaultConfig;

    fn wordcount(engine: &Engine) -> Result<(mrsim::JobStats, Vec<String>), mrsim::MrError> {
        engine.put_records("in", (0..80).map(|i| format!("w{}", i % 7)))?;
        let stats = engine.run_job(&word_count("wc-faults", 4))?;
        let mut rows: Vec<String> = engine.read_records("out")?;
        rows.sort();
        Ok((stats, rows))
    }

    #[test]
    fn injected_failures_do_not_change_results() {
        let clean = Engine::unbounded();
        let (clean_stats, clean_rows) = wordcount(&clean).unwrap();
        assert_eq!(clean_stats.task_retries, 0);

        let faulty = Engine::new(
            ClusterConfig::default().with_faults(FaultConfig::with_probability(0.4, 11)),
        )
        .unwrap();
        let (faulty_stats, faulty_rows) = wordcount(&faulty).unwrap();
        assert!(faulty_stats.task_retries > 0, "p=0.4 should force retries");
        assert_eq!(clean_rows, faulty_rows, "retried tasks must reproduce output");
        assert_eq!(clean_stats.output_text_bytes, faulty_stats.output_text_bytes);
    }

    #[test]
    fn exhausted_attempts_fail_the_job() {
        let engine = Engine::new(
            ClusterConfig::default()
                .with_faults(FaultConfig::with_probability(0.99, 3).with_max_attempts(2)),
        )
        .unwrap();
        let err = wordcount(&engine).unwrap_err();
        assert!(err.to_string().contains("consecutive attempts"), "{err}");
    }

    #[test]
    fn retries_are_deterministic() {
        // Determinism must hold whether a given seed completes or exhausts
        // its attempts, so compare the full outcome.
        let run = |seed| {
            let engine = Engine::new(
                ClusterConfig::default().with_faults(FaultConfig::with_probability(0.3, seed)),
            )
            .unwrap();
            match wordcount(&engine) {
                Ok((stats, rows)) => format!("ok retries={} rows={rows:?}", stats.task_retries),
                Err(e) => format!("err {e}"),
            }
        };
        for seed in 0..8 {
            assert_eq!(run(seed), run(seed), "seed {seed}");
        }
    }
}

/// The two DFS file layouts read alike: records a caller stores (one packed
/// buffer) and the same records written by a job (one buffer each) split
/// into the same map tasks, with the same bytes, and feed a downstream job
/// to the same counters and output.
mod file_layouts {
    use super::*;
    use common::Identity;
    use mrsim::trace::{MemorySink, TaskPhase, TraceEvent};
    use proptest::prelude::ProptestConfig;

    /// The engine's smallest map split (`SPLIT_FLOOR_BYTES`), in encoded bytes.
    const SPLIT_FLOOR: usize = 32 * 1024;

    /// What a word count over the DFS file `in` sees and leaves: the
    /// file's records, each map task's `(records, bytes)`, the job's stats,
    /// and its output records.
    type Seen = (Vec<Vec<u8>>, Vec<(u64, u64)>, String, Vec<Vec<u8>>);

    /// [`Seen`] with `records` in `in`, stored by the caller or, if
    /// `job_written`, copied there by an identity map-only job.
    fn downstream(records: &[String], workers: usize, job_written: bool) -> Seen {
        let sink = MemorySink::new();
        let engine =
            Engine::new(ClusterConfig::default().with_workers(workers).with_trace(sink.clone()))
                .unwrap();
        if job_written {
            engine.put_records("raw", records.iter().cloned()).unwrap();
            let copy = JobSpec::map_only("copy", vec!["raw".into()], Arc::new(Identity), "in");
            engine.run_job(&copy).unwrap();
        } else {
            engine.put_records("in", records.iter().cloned()).unwrap();
        }
        sink.take();
        let stats = engine.run_job(&word_count("down", 3)).unwrap();
        let splits = sink
            .take()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::TaskSpan { phase: TaskPhase::Map, records, bytes, .. } => {
                    Some((records, bytes))
                }
                _ => None,
            })
            .collect();
        let fs = engine.hdfs().lock();
        let read = |name: &str| fs.get(name).unwrap().iter().map(<[u8]>::to_vec).collect();
        (read("in"), splits, format!("{stats:?}"), read("out"))
    }

    fn assert_layouts_agree(records: &[String]) {
        let want: Vec<Vec<u8>> = records.iter().map(Rec::to_bytes).collect();
        for workers in [1, 4] {
            let packed = downstream(records, workers, false);
            assert_eq!(packed.0, want, "workers={workers}");
            assert_eq!(downstream(records, workers, true), packed, "workers={workers}");
        }
    }

    #[test]
    fn edge_shapes_agree() {
        assert_layouts_agree(&[]);
        assert_layouts_agree(&["one".to_string()]);
        // Records of 1 020 bytes encode to 1 024 (a four-byte length
        // prefix): 32 of them end a split exactly on the floor, and the
        // next record starts a new one.
        let kib: Vec<String> = (0..33).map(|i| format!("{i:04}").repeat(255)).collect();
        assert_eq!(kib.iter().take(32).map(|r| r.to_bytes().len()).sum::<usize>(), SPLIT_FLOOR);
        assert_layouts_agree(&kib);
        let (_, splits, _, _) = downstream(&kib, 1, false);
        assert_eq!(splits, vec![(32, SPLIT_FLOOR as u64), (1, 1024)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn random_files_agree(
            lens in prop::collection::vec(0usize..3000, 0..60),
        ) {
            let records: Vec<String> = lens
                .iter()
                .enumerate()
                .map(|(i, &n)| char::from(b'a' + (i % 7) as u8).to_string().repeat(n))
                .collect();
            assert_layouts_agree(&records);
        }
    }
}

/// The arena-backed spill path must be byte-for-byte equivalent to the
/// owned-pair shuffle it replaced. The reference model below re-implements
/// map → partition → sort → group → reduce over plain owned
/// `(Vec<u8>, Vec<u8>)` pairs.
mod arena_shuffle {
    use super::*;
    use mrsim::{MapEmitter, MrError, OutEmitter, RawMapOp, RawReduceOp, TaskContext};

    /// Ships [`map_pairs`] of each word.
    struct Fanout;

    impl RawMapOp for Fanout {
        fn run(&self, _: &TaskContext, rec: &[u8], out: &mut MapEmitter) -> Result<(), MrError> {
            for (k, v) in map_pairs(&String::from_bytes(rec)?) {
                out.emit_raw(&k.to_bytes(), &v.to_bytes(), k.text_size() + v.text_size() - 1);
            }
            Ok(())
        }
    }

    /// Writes every `(key, value)` pair of a group back as one record.
    struct Pairs;

    impl RawReduceOp for Pairs {
        fn run(
            &self,
            _: &TaskContext,
            key: &[u8],
            values: &[&[u8]],
            out: &mut OutEmitter,
        ) -> Result<(), MrError> {
            for v in values {
                let pair = (String::from_bytes(key)?, u64::from_bytes(v)?);
                out.emit_raw(pair.to_bytes(), pair.text_size())?;
            }
            Ok(())
        }
    }

    /// Mapper fanout used by both the engine job and the reference model:
    /// `w → (w, 1), (w#t, 2)`.
    fn map_pairs(w: &str) -> [(String, u64); 2] {
        [(w.to_string(), 1), (format!("{w}#t"), 2)]
    }

    /// Owned-pair reference shuffle. Returns the encoded output records in
    /// partition order — what the engine's output file must contain.
    fn reference_shuffle(words: &[String], reducers: usize) -> Vec<Vec<u8>> {
        type Pair = (Vec<u8>, Vec<u8>);
        let mut partitions: Vec<Vec<Pair>> = vec![Vec::new(); reducers];
        for w in words {
            for (k, v) in map_pairs(w) {
                let kb = k.to_bytes();
                let p = mrsim::default_partition(&kb, reducers);
                partitions[p].push((kb, v.to_bytes()));
            }
        }
        let mut out = Vec::new();
        for part in &mut partitions {
            part.sort();
            for (kb, vb) in part.iter() {
                let rec = (String::from_bytes(kb).unwrap(), u64::from_bytes(vb).unwrap());
                out.push(rec.to_bytes());
            }
        }
        out
    }

    /// Run the same job through the real engine and return the raw output
    /// file records. The identity reducer re-emits every `(key, value)`
    /// pair, so the output file *is* the sorted per-partition shuffle
    /// stream, verbatim.
    fn engine_shuffle(words: &[String], workers: usize, reducers: usize) -> Vec<Vec<u8>> {
        let engine = Engine::new(ClusterConfig::default().with_workers(workers)).unwrap();
        engine.put_records("in", words.to_vec()).unwrap();
        let words = InputBinding { file: "in".into(), mapper: Arc::new(Fanout) };
        let spec = JobSpec::map_reduce(
            "arena-vs-reference",
            vec![words],
            Arc::new(Pairs),
            reducers,
            "out",
        );
        engine.run_job(&spec).unwrap();
        let file = engine.hdfs().lock().get("out").unwrap();
        file.iter().map(<[u8]>::to_vec).collect()
    }

    /// Vocabulary rich in >8-byte shared prefixes so the prefix-cache
    /// tie-break (full-key memcmp) is exercised, not just the fast path.
    fn arb_words() -> impl Strategy<Value = Vec<String>> {
        prop::collection::vec(
            prop::sample::select(vec![
                "sharedprefix-a",
                "sharedprefix-b",
                "sharedprefix",
                "sharedprefix-",
                "short",
                "x",
                "",
            ]),
            0..80,
        )
        .prop_map(|ws| ws.into_iter().map(String::from).collect())
    }

    proptest! {
        #[test]
        fn arena_matches_owned_pair_reference(
            words in arb_words(),
            reducers in 1usize..5,
        ) {
            let expected = reference_shuffle(&words, reducers);
            for workers in [1usize, 4, 8] {
                let got = engine_shuffle(&words, workers, reducers);
                prop_assert_eq!(&got, &expected, "workers={} reducers={}", workers, reducers);
            }
        }
    }

    #[test]
    fn arena_matches_reference_across_multiple_map_tasks() {
        // 6 000 input records (~80 KB encoded) split into three map tasks
        // at the 32 KiB floor (regardless of worker count), so multi-bucket
        // absorption is genuinely exercised (small proptest inputs fit in
        // one split).
        let words: Vec<String> = (0..6000)
            .map(|i| match i % 5 {
                0 => format!("sharedprefix-{}", i % 23),
                1 => "sharedprefix".to_string(),
                2 => format!("k{}", i % 11),
                3 => String::new(),
                _ => format!("sharedprefix-{}#x", i % 7),
            })
            .collect();
        let expected = reference_shuffle(&words, 4);
        for workers in [1usize, 4, 8] {
            assert_eq!(engine_shuffle(&words, workers, 4), expected, "workers={workers}");
        }
    }
}
