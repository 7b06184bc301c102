//! `serde_json::to_string` streams text through `Serialize::write_json`;
//! `to_json_value` builds the tree it used to print.  Every byte this
//! workspace makes durable goes through the first, and every byte it
//! has pinned came from the second, so the two must agree on every
//! shape the derive accepts and every value the std impls cover.

use gridflow_telemetry::{TraceEvent, TraceRecord};
use proptest::prelude::*;
use serde::{Serialize, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// The streamed text of `x`, checked against its printed tree.
fn streamed<T: Serialize + ?Sized>(x: &T) -> String {
    let text = serde_json::to_string(x).unwrap();
    assert_eq!(text, x.to_json_value().to_string());
    text
}

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
struct Nothing();

#[derive(Serialize)]
struct Empty {}

#[derive(Serialize)]
struct Newtype(Option<f64>);

#[derive(Serialize)]
struct Pair(i64, String);

/// Fields declared out of key order, a raw identifier, and skipped
/// fields first, in the middle and last once sorted.
#[derive(Serialize)]
struct Named<T> {
    zeta: T,
    #[serde(skip_serializing_if = "Option::is_none")]
    alpha: Option<f64>,
    mid: Vec<T>,
    #[serde(skip_serializing_if = "Option::is_none")]
    nested: Option<Newtype>,
    r#type: u8,
    #[serde(skip_serializing_if = "Option::is_none")]
    zz: Option<String>,
}

#[derive(Serialize)]
struct AllSkipped {
    #[serde(skip_serializing_if = "Option::is_none")]
    b: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    a: Option<u8>,
}

#[derive(Serialize)]
enum Shape<T> {
    Unit,
    Zero(),
    One(T),
    Two(u64, String),
    Rec {
        z: T,
        #[serde(skip_serializing_if = "Option::is_none")]
        a: Option<f64>,
        keyed: BTreeMap<u32, T>,
    },
}

/// Quotes, backslashes, every named escape, bare control characters,
/// DEL (not escaped) and one, two, three and four byte UTF-8.
const AWKWARD: [char; 16] = [
    'a', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}', '\u{7f}', 'é',
    '語', '😀',
];

fn text() -> Sampler<String> {
    prop::collection::vec(0usize..AWKWARD.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| AWKWARD[i]).collect())
}

/// The float categories the printer tells apart: signed zeros, integral
/// below and at the `.0`-suffix bound, fractional, huge, tiny, and the
/// non-finite ones that print as `null` without being null.
fn float() -> Sampler<f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(1e15),
        Just(1e15 - 1.0),
        Just(-1e15),
        Just(0.1),
        Just(1.0e-300),
        Just(f64::MAX),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        any::<f64>(),
    ]
}

fn named() -> Sampler<Named<String>> {
    (
        (
            text(),
            prop::option::of(float()),
            prop::collection::vec(text(), 0..3),
        ),
        (
            prop::option::of(prop::option::of(float())),
            any::<u8>(),
            prop::option::of(text()),
        ),
    )
        .prop_map(|((zeta, alpha, mid), (nested, r#type, zz))| Named {
            zeta,
            alpha,
            mid,
            nested: nested.map(Newtype),
            r#type,
            zz,
        })
}

fn shape() -> Sampler<Shape<f64>> {
    prop_oneof![
        Just(()).prop_map(|()| Shape::Unit),
        Just(()).prop_map(|()| Shape::Zero()),
        float().prop_map(Shape::One),
        (any::<u64>(), text()).prop_map(|(n, s)| Shape::Two(n, s)),
        (
            float(),
            prop::option::of(float()),
            prop::collection::vec((any::<u32>(), float()), 0..4)
        )
            .prop_map(|(z, a, keyed)| Shape::Rec {
                z,
                a,
                keyed: keyed.into_iter().collect(),
            }),
    ]
}

proptest! {
    #[test]
    fn derived_structs_stream_their_tree(value in named(), a in prop::option::of(any::<u8>()), b in prop::option::of(text())) {
        streamed(&value);
        streamed(&AllSkipped { b, a });
    }

    #[test]
    fn derived_enums_stream_their_tree(value in shape(), boxed in shape()) {
        streamed(&value);
        streamed(&Shape::One(Box::new(boxed)));
    }

    #[test]
    fn strings_and_numbers_stream_their_tree(s in text(), f in float(), u in any::<u64>(), i in any::<i64>()) {
        streamed(&s);
        streamed(s.as_str());
        streamed(&s.chars().next());
        streamed(&f);
        streamed(&(f as f32));
        streamed(&u);
        streamed(&i);
        streamed(&(u as u8, i as i8, u as usize, i as isize));
    }

    #[test]
    fn containers_stream_their_tree(
        keyed in prop::collection::vec((any::<i64>(), text()), 0..6),
        named in prop::collection::vec((text(), float()), 0..6),
        items in prop::collection::vec(prop::option::of(float()), 0..6),
    ) {
        // Integer keys sort as text in the tree, as numbers in the map.
        streamed(&keyed.iter().cloned().collect::<BTreeMap<i64, String>>());
        streamed(&keyed.iter().cloned().collect::<HashMap<i64, String>>());
        streamed(&named.iter().cloned().collect::<BTreeMap<String, f64>>());
        streamed(&named.iter().map(|(k, _)| k.clone()).collect::<BTreeSet<String>>());
        streamed(&named.iter().map(|(k, _)| k.clone()).collect::<HashSet<String>>());
        streamed(&items);
        streamed(items.as_slice());
        streamed(&items.iter().copied().collect::<VecDeque<_>>());
        streamed(&(items.first().copied(), named.first().cloned()));
    }
}

#[test]
fn the_shapes_print_what_they_always_printed() {
    assert_eq!(streamed(&Unit), "null");
    assert_eq!(streamed(&Nothing()), "null");
    assert_eq!(streamed(&Empty {}), "{}");
    assert_eq!(streamed(&()), "null");
    assert_eq!(streamed(&Newtype(Some(-0.0))), "-0.0");
    assert_eq!(streamed(&Pair(-7, "x\"y".into())), r#"[-7,"x\"y"]"#);
    assert_eq!(streamed(&1e15), "1000000000000000");
    assert_eq!(streamed(&(1e15 - 1.0)), "999999999999999.0");
    assert_eq!(streamed(&u64::MAX), "18446744073709551615");
    assert_eq!(streamed(&i64::MIN), "-9223372036854775808");
    assert_eq!(streamed("\u{1}\u{8}é"), "\"\\u0001\\bé\"");
    assert_eq!(streamed(&Shape::<u8>::Unit), r#""Unit""#);
    assert_eq!(streamed(&Shape::<u8>::Zero()), r#"{"Zero":[]}"#);
    assert_eq!(
        streamed(&Shape::Two(1, "b".into()) as &Shape<u8>),
        r#"{"Two":[1,"b"]}"#
    );

    // "10" < "2": the tree's order, not the map's.
    let keyed: BTreeMap<u32, char> = [(2, 'b'), (10, 'a')].into();
    assert_eq!(streamed(&keyed), r#"{"10":"a","2":"b"}"#);
    let hashed: HashMap<u32, char> = [(2, 'b'), (10, 'a')].into();
    assert_eq!(streamed(&hashed), r#"{"10":"a","2":"b"}"#);
    assert_eq!(streamed(&HashSet::from([10u32, 2])), "[10,2]");
}

#[test]
fn a_skipped_field_is_tested_as_a_value_not_as_its_text() {
    let with = |alpha, nested: Option<Option<f64>>| Named {
        zeta: 1u8,
        alpha,
        mid: vec![],
        nested: nested.map(Newtype),
        r#type: 2,
        zz: None,
    };
    assert_eq!(
        streamed(&with(None, None)),
        r#"{"mid":[],"r#type":2,"zeta":1}"#
    );
    assert_eq!(
        streamed(&with(Some(0.5), None)),
        r#"{"alpha":0.5,"mid":[],"r#type":2,"zeta":1}"#
    );
    // NaN prints as `null` but is a number: the field stays.
    assert_eq!(
        streamed(&with(Some(f64::NAN), Some(Some(f64::NAN)))),
        r#"{"alpha":null,"mid":[],"nested":null,"r#type":2,"zeta":1}"#
    );
    // A present newtype around `None` is the value null: the field goes.
    assert_eq!(
        streamed(&with(None, Some(None))),
        r#"{"mid":[],"r#type":2,"zeta":1}"#
    );
    assert_eq!(streamed(&AllSkipped { b: None, a: None }), "{}");
    assert_eq!(
        streamed(&AllSkipped {
            b: Some("x".into()),
            a: None
        }),
        r#"{"b":"x"}"#
    );
}

/// A hand-written `Serialize` from before `write_json` existed.
struct TreeOnly(Option<BTreeMap<u32, f64>>);

impl Serialize for TreeOnly {
    fn to_json_value(&self) -> Value {
        self.0.to_json_value()
    }
}

#[derive(Serialize)]
struct Holder {
    plain: TreeOnly,
    #[serde(skip_serializing_if = "Option::is_none")]
    skipped: Option<TreeOnly>,
}

#[test]
fn an_impl_without_write_json_still_prints_its_tree() {
    let map = || TreeOnly(Some([(2, 0.5), (10, f64::NAN)].into()));
    assert_eq!(streamed(&map()), r#"{"10":null,"2":0.5}"#);
    assert_eq!(
        streamed(&Holder {
            plain: map(),
            skipped: Some(map())
        }),
        r#"{"plain":{"10":null,"2":0.5},"skipped":{"10":null,"2":0.5}}"#
    );
    // Its null is found by building the tree, the default null test.
    assert_eq!(
        streamed(&Holder {
            plain: TreeOnly(None),
            skipped: Some(TreeOnly(None))
        }),
        r#"{"plain":null}"#
    );
}

/// One value of every [`TraceEvent`] variant, text fields awkward.
fn one_of_each() -> Vec<TraceEvent> {
    use TraceEvent::*;
    let s = || "a\"b\\c\n\u{1}é".to_string();
    vec![
        MessageSent {
            id: u64::MAX,
            performative: s(),
            sender: s(),
            receiver: s(),
            in_reply_to: Some(3),
        },
        MessageSent {
            id: 0,
            performative: s(),
            sender: s(),
            receiver: s(),
            in_reply_to: None,
        },
        MessageDelivered {
            id: 1,
            receiver: s(),
        },
        MessageDropped {
            id: 1,
            sender: s(),
            receiver: s(),
        },
        MessageDuplicated {
            id: 1,
            sender: s(),
            receiver: s(),
        },
        MessageDelayed {
            id: 1,
            sender: s(),
            receiver: s(),
            until_tick: 9,
        },
        MessageReleased {
            id: 1,
            receiver: s(),
        },
        RequestTimedOut { agent: s() },
        RequestAnswered {
            agent: s(),
            correct: true,
        },
        EnactmentStarted {
            workflow: s(),
            resumed: false,
        },
        ActivityDispatched {
            activity: s(),
            service: s(),
            container: s(),
            attempt: 2,
        },
        ActivityCompleted {
            activity: s(),
            service: s(),
            container: s(),
            duration_s: 259717646520.72122,
            cost: -0.0,
        },
        ActivityFailed {
            activity: s(),
            service: s(),
            container: s(),
            attempt: 1,
        },
        RetryScheduled {
            activity: s(),
            service: s(),
            container: s(),
            attempt: 1,
            backoff_ticks: 2,
            resume_tick: 3,
        },
        LeaseGranted {
            activity: s(),
            container: s(),
            lease_ticks: 4,
            deadline_tick: 5,
        },
        LeaseExpired {
            activity: s(),
            container: s(),
            lease_ticks: 4,
            took_ticks: 6,
        },
        BreakerOpened {
            container: s(),
            consecutive_failures: 3,
            until_tick: 7,
        },
        BreakerHalfOpen { container: s() },
        BreakerClosed { container: s() },
        TransitionFired {
            kind: s(),
            node: s(),
        },
        ReplanTriggered {
            activity: s(),
            service: s(),
            excluded: vec![s(), s()],
            round: 1,
        },
        ReplanInstalled { viable: false },
        PlanGeneration {
            generation: 3,
            best_overall: 1e15,
            mean_overall: f64::NAN,
            mean_size: 7.5,
        },
        PlanCacheHit { key: s() },
        PlanCacheMiss { key: s() },
        PlanCoalesced { key: s() },
        EnactmentFinished {
            success: false,
            abort_reason: Some(s()),
        },
        EnactmentFinished {
            success: true,
            abort_reason: None,
        },
        NodeLost {
            container: s(),
            after_executions: 2,
        },
        Custom {
            label: s(),
            detail: s(),
        },
        TickStarted { tick: 0 },
        CaseAdmitted {
            case: s(),
            tick: 1,
            reason: Some(s()),
        },
        CaseAdmitted {
            case: s(),
            tick: 1,
            reason: None,
        },
        CaseRejected {
            case: s(),
            reason: s(),
        },
        CaseBlocked {
            case: s(),
            service: s(),
        },
        CaseCompleted {
            case: s(),
            success: true,
        },
        SlotReserved {
            case: s(),
            container: s(),
        },
        SlotReleased {
            case: s(),
            container: s(),
        },
        MessageReordered {
            id: 1,
            sender: s(),
            receiver: s(),
        },
        PartitionStarted {
            a: s(),
            b: s(),
            heal_tick: 8,
        },
        PartitionHealed { a: s(), b: s() },
    ]
}

#[test]
fn every_trace_event_variant_streams_its_tree() {
    let events = one_of_each();
    let labels: BTreeSet<_> = events.iter().map(TraceEvent::label).collect();
    assert_eq!(labels.len(), 38, "one_of_each() misses a variant");
    for (seq, event) in events.into_iter().enumerate() {
        let record = TraceRecord {
            seq: seq as u64,
            tick: 3,
            at_s: seq as f64 * 0.25,
            source: "case:a\"b/enactor".into(),
            event,
        };
        streamed(&record);
    }
}
