//! Barrier-aligned race tests for the counts cache's single-flight
//! discipline, exercised on the same [`SharedCountsCache`] the serving
//! registry hands to every request: N identical concurrent requests must run
//! the one-pass scan exactly once, a panicking builder must not wedge its
//! followers, and a follower's wait must respect the request deadline.

use dpclustx::counts::ScoreTable;
use dpclustx::engine::{CountedTables, CountsKey, SharedCountsCache};
use dpx_data::contingency::ClusteredCounts;
use dpx_data::synth::diabetes;
use dpx_data::{hash_labels, Dataset};
use dpx_runtime::CancelToken;
use dpx_serve::derive_labels;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

const N_CLUSTERS: usize = 2;

fn dataset() -> Arc<Dataset> {
    let mut rng = StdRng::seed_from_u64(5);
    Arc::new(diabetes::spec(2).generate(400, &mut rng).data)
}

fn key_for(data: &Dataset, labels: &[usize]) -> CountsKey {
    CountsKey {
        dataset_fingerprint: data.fingerprint(),
        labels_hash: hash_labels(labels, N_CLUSTERS),
    }
}

fn build_tables(data: &Dataset, labels: &[usize]) -> CountedTables {
    let counts = ClusteredCounts::build(data, labels, N_CLUSTERS, 1);
    let table = ScoreTable::from_clustered_counts(&counts);
    CountedTables { counts, table }
}

#[test]
fn racing_identical_requests_build_counts_exactly_once() {
    const N: usize = 8;
    let data = dataset();
    let labels = derive_labels(&data, 0, N_CLUSTERS);
    let key = key_for(&data, &labels);
    let cache = Arc::new(SharedCountsCache::new());
    let builds = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(N));
    let handles: Vec<_> = (0..N)
        .map(|_| {
            let data = Arc::clone(&data);
            let labels = labels.clone();
            let cache = Arc::clone(&cache);
            let builds = Arc::clone(&builds);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                cache.get_or_build(key, || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    // Hold the flight open long enough that every other
                    // thread arrives while the build is still in progress.
                    thread::sleep(Duration::from_millis(25));
                    build_tables(&data, &labels)
                })
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(builds.load(Ordering::SeqCst), 1, "one scan for N racers");
    let misses = results.iter().filter(|(_, hit)| !hit).count();
    assert_eq!(misses, 1, "exactly the leader reports a cold build");
    for (tables, _) in &results {
        assert!(
            Arc::ptr_eq(tables, &results[0].0),
            "every racer shares the leader's tables"
        );
    }
    assert!(
        cache.singleflight_hits() >= 1,
        "followers were deduplicated against the in-flight build"
    );
}

#[test]
fn panicking_builder_releases_the_flight_and_a_follower_rebuilds() {
    let data = dataset();
    let labels = derive_labels(&data, 1, N_CLUSTERS);
    let key = key_for(&data, &labels);
    let cache = Arc::new(SharedCountsCache::new());
    let doomed = {
        let cache = Arc::clone(&cache);
        thread::spawn(move || {
            cache.get_or_build(key, || -> CountedTables {
                thread::sleep(Duration::from_millis(20));
                panic!("builder died mid-scan")
            })
        })
    };
    thread::sleep(Duration::from_millis(5));
    // The follower arrives while the doomed flight is up. After the leader's
    // panic it must wake, find the cache still empty, and run the build
    // itself instead of wedging forever.
    let builds = AtomicUsize::new(0);
    let (tables, hit) = cache.get_or_build(key, || {
        builds.fetch_add(1, Ordering::SeqCst);
        build_tables(&data, &labels)
    });
    assert!(!hit, "the follower's retry is a cold build");
    assert_eq!(builds.load(Ordering::SeqCst), 1);
    assert_eq!(tables.counts.n_rows(), 400);
    assert!(doomed.join().is_err(), "the leader thread panicked");
}

#[test]
fn follower_wait_is_bounded_by_the_deadline_token() {
    let data = dataset();
    let labels = derive_labels(&data, 2, N_CLUSTERS);
    let key = key_for(&data, &labels);
    let cache = Arc::new(SharedCountsCache::new());
    let gate = Arc::new(Barrier::new(2));
    let leader = {
        let data = Arc::clone(&data);
        let labels = labels.clone();
        let cache = Arc::clone(&cache);
        let gate = Arc::clone(&gate);
        thread::spawn(move || {
            cache.get_or_build(key, || {
                gate.wait(); // the flight is provably up before the follower runs
                thread::sleep(Duration::from_millis(100));
                build_tables(&data, &labels)
            })
        })
    };
    gate.wait();
    let token = CancelToken::with_deadline(Duration::from_millis(5));
    let err = cache
        .get_or_build_cancellable(key, Some(&token), || panic!("follower must not build"))
        .unwrap_err();
    assert_eq!(err, "deadline_exceeded");
    let (_, hit) = leader.join().unwrap();
    assert!(!hit, "the slow leader still completes its own build");
}

#[test]
fn long_append_stream_holds_a_bounded_cache_at_its_bound() {
    // Every append re-keys the dataset fingerprint (see
    // `dpx_serve::registry`), so a resident process serving an append
    // stream retires one cache generation per append. Drive that exact
    // insert pattern — a fresh fingerprint per generation, same
    // clustering — and check the memo never grows past the bound.
    const BOUND: usize = 4;
    let data = dataset();
    let labels = derive_labels(&data, 0, N_CLUSTERS);
    let cache = SharedCountsCache::with_max_entries(BOUND);
    let key_of = |generation: u64| CountsKey {
        dataset_fingerprint: generation,
        labels_hash: hash_labels(&labels, N_CLUSTERS),
    };
    for generation in 0..64u64 {
        cache.insert(key_of(generation), build_tables(&data, &labels));
        assert!(
            cache.len() <= BOUND,
            "generation {generation} grew the cache to {}",
            cache.len()
        );
    }
    // The live generation — the one the daemon still serves — stayed hot.
    assert!(cache.get(&key_of(63)).is_some());
    assert!(cache.get(&key_of(0)).is_none(), "stale generations retired");
}
