//! Golden bytes of the journal format: one event of every kind, with
//! string fields that need escaping, must serialize to exactly these
//! lines and hashes, parse back to the same events and verify. Any
//! change to a tag, a field name, the field order or the escaping
//! shows up here before it breaks a recorded journal's hash chain.
//!
//! A property test then mutates or truncates the golden lines and
//! checks that the parser and the chain verifier reject every
//! alteration that changes an event, without panicking.

use journal::{events_from_jsonl, verify_events, AdmissionClass, EventKind, Journal};
use netsim::SimTime;
use proptest::prelude::*;

/// A string field carrying a quote, a backslash, a control character
/// and non-ASCII text.
fn odd(base: &str) -> String {
    format!("{base} \"q\" \\ \u{1} é→ü")
}

/// One event of every kind, in declaration order.
fn every_kind() -> Vec<(&'static str, EventKind)> {
    vec![
        (
            "node-1",
            EventKind::StreamAdmit {
                class: AdmissionClass::Stream,
                stream: 7,
                demanded_bps: 1_500_000,
                available_bps: 98_500_000,
            },
        ),
        (
            "node-1",
            EventKind::StreamReject {
                class: AdmissionClass::Recording,
                stream: 8,
                demanded_bps: 9_000_000,
                available_bps: 100,
            },
        ),
        (
            "node-1",
            EventKind::RouteDecision {
                title: odd("movie"),
                target: "node-2".into(),
                candidates: 2,
            },
        ),
        (
            "node-1",
            EventKind::Failover {
                title: odd("movie"),
                from: "node-2".into(),
                to: "node-3".into(),
            },
        ),
        (
            "node-2",
            EventKind::ReferralIssued {
                target: odd("node"),
            },
        ),
        (
            "client-3",
            EventKind::ReferralFollowed {
                target: "node-3".into(),
            },
        ),
        (
            "client-3",
            EventKind::ReferralFailed {
                target: odd("node"),
            },
        ),
        ("rebalance", EventKind::RebalanceSample),
        (
            "rebalance",
            EventKind::GrowStarted {
                title: odd("movie"),
                to: "node-4".into(),
            },
        ),
        (
            "rebalance",
            EventKind::DrainCopyStarted {
                title: "movie-2".into(),
                to: odd("node"),
            },
        ),
        (
            "rebalance",
            EventKind::CopyCompleted {
                title: odd("movie"),
                to: "node-4".into(),
            },
        ),
        (
            "rebalance",
            EventKind::CopyAborted {
                title: "movie-3".into(),
                to: odd("node"),
            },
        ),
        (
            "rebalance",
            EventKind::CopyRejected {
                title: odd("movie"),
                to: "node-2".into(),
            },
        ),
        (
            "rebalance",
            EventKind::Shrink {
                title: odd("movie"),
                from: "node-1".into(),
            },
        ),
        (
            "rebalance",
            EventKind::DrainStarted {
                location: odd("node"),
            },
        ),
        (
            "rebalance",
            EventKind::DrainCompleted {
                location: "node-2".into(),
            },
        ),
        (
            "rebalance",
            EventKind::DirectoryUpdate {
                title: odd("movie"),
            },
        ),
        ("node-1", EventKind::DiskQueueSample { disk: 3, depth: 12 }),
        (
            "node-1",
            EventKind::CacheSummary {
                hits: 4_000_000_000_000,
                misses: 17,
            },
        ),
        (
            "node-1",
            EventKind::HealthSnapshot {
                streams: 3,
                control_assocs: 2,
                available_bps: 97_000_000,
                cache_hit_permille: 512,
                queue_depth_max: 4,
            },
        ),
        (
            "node-1",
            EventKind::MergeJoined {
                movie: 1,
                leader: 10,
                follower: 11,
                gap_blocks: 4,
            },
        ),
        (
            "node-1",
            EventKind::FastFeedStarted {
                movie: 1,
                leader: 10,
                follower: 12,
                gap_blocks: 40,
                delta_bps: 345_000,
            },
        ),
        (
            "node-1",
            EventKind::FastFeedConverged {
                movie: 1,
                follower: 12,
            },
        ),
        (
            "node-1",
            EventKind::LeaderPromoted {
                movie: 1,
                from: 10,
                to: 12,
                followers: 1,
            },
        ),
        (
            "node-1",
            EventKind::GroupSplit {
                movie: 1,
                follower: 11,
            },
        ),
        (
            "node-1",
            EventKind::DiskFailed {
                disk: u32::MAX,
                lost_blocks: 120,
            },
        ),
        (
            "node-1",
            EventKind::RebuildStarted {
                disk: 2,
                blocks: 120,
                reserve_bps: 12_000_000,
            },
        ),
        (
            "node-1",
            EventKind::RebuildCompleted {
                disk: 2,
                blocks: u64::MAX,
            },
        ),
        (
            "cluster",
            EventKind::ServerCrashed {
                location: odd("node"),
            },
        ),
        (
            odd_actor(),
            EventKind::StreamFailedOver {
                title: odd("movie"),
                from: "node-3".into(),
                to: "node-2".into(),
                resume_frame: 431,
            },
        ),
    ]
}

/// An actor name that needs escaping too.
fn odd_actor() -> &'static str {
    "client-\"9\"\\\u{1f}ß"
}

fn golden_journal() -> Journal {
    let j = Journal::standalone();
    for (i, (server, kind)) in every_kind().into_iter().enumerate() {
        j.observe_time(SimTime::from_micros(1_000 * i as u64 + 7));
        j.record(server, kind);
    }
    j
}

/// The exact line and hash of each event of [`golden_journal`].
const GOLDEN: &[(&str, u64)] = &[
    (
        r#"{"seq":0,"us":7,"server":"node-1","prev":"0000000000000000","hash":"d815d5f684929f2a","kind":{"t":"stream_admit","class":"stream","stream":7,"demanded_bps":1500000,"available_bps":98500000}}"#,
        0xd815d5f684929f2a,
    ),
    (
        r#"{"seq":1,"us":1007,"server":"node-1","prev":"d815d5f684929f2a","hash":"beb15bce99342485","kind":{"t":"stream_reject","class":"recording","stream":8,"demanded_bps":9000000,"available_bps":100}}"#,
        0xbeb15bce99342485,
    ),
    (
        r#"{"seq":2,"us":2007,"server":"node-1","prev":"beb15bce99342485","hash":"44aaedae3f7db91f","kind":{"t":"route_decision","title":"movie \"q\" \\ \u0001 é→ü","target":"node-2","candidates":2}}"#,
        0x44aaedae3f7db91f,
    ),
    (
        r#"{"seq":3,"us":3007,"server":"node-1","prev":"44aaedae3f7db91f","hash":"1bdc64c2cd4769f1","kind":{"t":"failover","title":"movie \"q\" \\ \u0001 é→ü","from":"node-2","to":"node-3"}}"#,
        0x1bdc64c2cd4769f1,
    ),
    (
        r#"{"seq":4,"us":4007,"server":"node-2","prev":"0000000000000000","hash":"3ae8e97527b59efc","kind":{"t":"referral_issued","target":"node \"q\" \\ \u0001 é→ü"}}"#,
        0x3ae8e97527b59efc,
    ),
    (
        r#"{"seq":5,"us":5007,"server":"client-3","prev":"0000000000000000","hash":"4e5077fe22a3cffa","kind":{"t":"referral_followed","target":"node-3"}}"#,
        0x4e5077fe22a3cffa,
    ),
    (
        r#"{"seq":6,"us":6007,"server":"client-3","prev":"4e5077fe22a3cffa","hash":"b834b9b78180c125","kind":{"t":"referral_failed","target":"node \"q\" \\ \u0001 é→ü"}}"#,
        0xb834b9b78180c125,
    ),
    (
        r#"{"seq":7,"us":7007,"server":"rebalance","prev":"0000000000000000","hash":"2b4295fa443952dd","kind":{"t":"rebalance_sample"}}"#,
        0x2b4295fa443952dd,
    ),
    (
        r#"{"seq":8,"us":8007,"server":"rebalance","prev":"2b4295fa443952dd","hash":"c67f6f5f9209251b","kind":{"t":"grow_started","title":"movie \"q\" \\ \u0001 é→ü","to":"node-4"}}"#,
        0xc67f6f5f9209251b,
    ),
    (
        r#"{"seq":9,"us":9007,"server":"rebalance","prev":"c67f6f5f9209251b","hash":"8a67d623be541a91","kind":{"t":"drain_copy_started","title":"movie-2","to":"node \"q\" \\ \u0001 é→ü"}}"#,
        0x8a67d623be541a91,
    ),
    (
        r#"{"seq":10,"us":10007,"server":"rebalance","prev":"8a67d623be541a91","hash":"2af1bc82dabc61ba","kind":{"t":"copy_completed","title":"movie \"q\" \\ \u0001 é→ü","to":"node-4"}}"#,
        0x2af1bc82dabc61ba,
    ),
    (
        r#"{"seq":11,"us":11007,"server":"rebalance","prev":"2af1bc82dabc61ba","hash":"df7179e6551a112c","kind":{"t":"copy_aborted","title":"movie-3","to":"node \"q\" \\ \u0001 é→ü"}}"#,
        0xdf7179e6551a112c,
    ),
    (
        r#"{"seq":12,"us":12007,"server":"rebalance","prev":"df7179e6551a112c","hash":"f9878ba963138ca2","kind":{"t":"copy_rejected","title":"movie \"q\" \\ \u0001 é→ü","to":"node-2"}}"#,
        0xf9878ba963138ca2,
    ),
    (
        r#"{"seq":13,"us":13007,"server":"rebalance","prev":"f9878ba963138ca2","hash":"798f159f397cf721","kind":{"t":"shrink","title":"movie \"q\" \\ \u0001 é→ü","from":"node-1"}}"#,
        0x798f159f397cf721,
    ),
    (
        r#"{"seq":14,"us":14007,"server":"rebalance","prev":"798f159f397cf721","hash":"e2bd9153df6ae909","kind":{"t":"drain_started","location":"node \"q\" \\ \u0001 é→ü"}}"#,
        0xe2bd9153df6ae909,
    ),
    (
        r#"{"seq":15,"us":15007,"server":"rebalance","prev":"e2bd9153df6ae909","hash":"f6f382a8a242e1c8","kind":{"t":"drain_completed","location":"node-2"}}"#,
        0xf6f382a8a242e1c8,
    ),
    (
        r#"{"seq":16,"us":16007,"server":"rebalance","prev":"f6f382a8a242e1c8","hash":"bbf38fc3e29aaaa8","kind":{"t":"directory_update","title":"movie \"q\" \\ \u0001 é→ü"}}"#,
        0xbbf38fc3e29aaaa8,
    ),
    (
        r#"{"seq":17,"us":17007,"server":"node-1","prev":"1bdc64c2cd4769f1","hash":"c8c5b109879c08a2","kind":{"t":"disk_queue_sample","disk":3,"depth":12}}"#,
        0xc8c5b109879c08a2,
    ),
    (
        r#"{"seq":18,"us":18007,"server":"node-1","prev":"c8c5b109879c08a2","hash":"c76548585057c107","kind":{"t":"cache_summary","hits":4000000000000,"misses":17}}"#,
        0xc76548585057c107,
    ),
    (
        r#"{"seq":19,"us":19007,"server":"node-1","prev":"c76548585057c107","hash":"efa702057523091f","kind":{"t":"health_snapshot","streams":3,"control_assocs":2,"available_bps":97000000,"cache_hit_permille":512,"queue_depth_max":4}}"#,
        0xefa702057523091f,
    ),
    (
        r#"{"seq":20,"us":20007,"server":"node-1","prev":"efa702057523091f","hash":"9903fbb33213f9c3","kind":{"t":"merge_joined","movie":1,"leader":10,"follower":11,"gap_blocks":4}}"#,
        0x9903fbb33213f9c3,
    ),
    (
        r#"{"seq":21,"us":21007,"server":"node-1","prev":"9903fbb33213f9c3","hash":"b4379368ed87aa12","kind":{"t":"fast_feed_started","movie":1,"leader":10,"follower":12,"gap_blocks":40,"delta_bps":345000}}"#,
        0xb4379368ed87aa12,
    ),
    (
        r#"{"seq":22,"us":22007,"server":"node-1","prev":"b4379368ed87aa12","hash":"d8d3ed54022d52a6","kind":{"t":"fast_feed_converged","movie":1,"follower":12}}"#,
        0xd8d3ed54022d52a6,
    ),
    (
        r#"{"seq":23,"us":23007,"server":"node-1","prev":"d8d3ed54022d52a6","hash":"4398a2554c573ecf","kind":{"t":"leader_promoted","movie":1,"from":10,"to":12,"followers":1}}"#,
        0x4398a2554c573ecf,
    ),
    (
        r#"{"seq":24,"us":24007,"server":"node-1","prev":"4398a2554c573ecf","hash":"13a4051d46958996","kind":{"t":"group_split","movie":1,"follower":11}}"#,
        0x13a4051d46958996,
    ),
    (
        r#"{"seq":25,"us":25007,"server":"node-1","prev":"13a4051d46958996","hash":"6ed184909bfc7c08","kind":{"t":"disk_failed","disk":4294967295,"lost_blocks":120}}"#,
        0x6ed184909bfc7c08,
    ),
    (
        r#"{"seq":26,"us":26007,"server":"node-1","prev":"6ed184909bfc7c08","hash":"7230220fcf48c5e3","kind":{"t":"rebuild_started","disk":2,"blocks":120,"reserve_bps":12000000}}"#,
        0x7230220fcf48c5e3,
    ),
    (
        r#"{"seq":27,"us":27007,"server":"node-1","prev":"7230220fcf48c5e3","hash":"7bf948aa560e5479","kind":{"t":"rebuild_completed","disk":2,"blocks":18446744073709551615}}"#,
        0x7bf948aa560e5479,
    ),
    (
        r#"{"seq":28,"us":28007,"server":"cluster","prev":"0000000000000000","hash":"b80f77d0e286c352","kind":{"t":"server_crashed","location":"node \"q\" \\ \u0001 é→ü"}}"#,
        0xb80f77d0e286c352,
    ),
    (
        r#"{"seq":29,"us":29007,"server":"client-\"9\"\\\u001fß","prev":"0000000000000000","hash":"c8e1547970f08f30","kind":{"t":"stream_failed_over","title":"movie \"q\" \\ \u0001 é→ü","from":"node-3","to":"node-2","resume_frame":431}}"#,
        0xc8e1547970f08f30,
    ),
];

#[test]
fn every_kind_serializes_to_its_golden_bytes() {
    let j = golden_journal();
    let events = j.events();
    let tags: std::collections::BTreeSet<&str> = events.iter().map(|e| e.kind.tag()).collect();
    assert_eq!(tags.len(), 30, "one event of every kind");
    assert_eq!(events.len(), GOLDEN.len());
    for (ev, &(line, hash)) in events.iter().zip(GOLDEN) {
        assert_eq!(ev.to_json_line(), line, "event {}", ev.seq);
        assert_eq!(ev.hash, hash, "event {}", ev.seq);
        assert_eq!(ev.compute_hash(), hash, "event {}", ev.seq);
    }
    j.verify().expect("chain intact");
}

#[test]
fn every_kind_round_trips() {
    let j = golden_journal();
    let text = j.to_jsonl();
    let events = events_from_jsonl(&text).expect("own output parses");
    assert_eq!(events, j.events());
    verify_events(&events).expect("parsed chain verifies");
    for (ev, &(line, _)) in events.iter().zip(GOLDEN) {
        let one = events_from_jsonl(line).expect("golden line parses");
        assert_eq!(one.as_slice(), std::slice::from_ref(ev));
    }
}

/// Parses `text` and reports whether it reads back as exactly the
/// golden events with an intact chain.
fn accepted_as_golden(text: &str) -> Option<bool> {
    let events = events_from_jsonl(text).ok()?;
    verify_events(&events).ok()?;
    Some(events == golden_journal().events())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A byte changed anywhere in one line either fails to parse,
    /// breaks the chain, or re-spells the same event (a hex digit's
    /// case, a leading zero): it never yields a different journal
    /// that verifies, and it never panics.
    #[test]
    fn mutated_lines_are_rejected(line in 0usize..30, at in any::<u16>(), byte in any::<u8>()) {
        let text = golden_journal().to_jsonl();
        let mut lines: Vec<Vec<u8>> = text.lines().map(|l| l.as_bytes().to_vec()).collect();
        let target = &mut lines[line];
        let at = usize::from(at) % target.len();
        target[at] = if target[at] == byte { byte ^ 1 } else { byte };
        let mutated: Vec<u8> = lines.join(&b'\n');
        let mutated = String::from_utf8_lossy(&mutated);
        prop_assert!(accepted_as_golden(&mutated) != Some(false), "a different journal verified");
    }

    /// A line cut short never parses.
    #[test]
    fn truncated_lines_are_rejected(line in 0usize..30, keep in any::<u16>()) {
        let text = golden_journal().to_jsonl();
        let full = text.lines().nth(line).expect("30 lines");
        let keep = usize::from(keep) % full.len();
        let cut = String::from_utf8_lossy(&full.as_bytes()[..keep]);
        if !cut.trim().is_empty() {
            prop_assert!(events_from_jsonl(&cut).is_err(), "truncated line parsed: {cut}");
        }
    }
}
