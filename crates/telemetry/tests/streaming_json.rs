//! `serde_json::to_string` streams text through `Serialize::write_json`;
//! `to_json_value` builds the tree it used to print.  Every byte this
//! workspace makes durable goes through the first, and every byte it
//! has pinned came from the second, so the two must agree on every
//! shape the derive accepts and every value the std impls cover.

mod shapes;

use gridflow_telemetry::{TraceEvent, TraceRecord};
use proptest::prelude::*;
use serde::{Serialize, Value};
use shapes::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// The streamed text of `x`, checked against its printed tree.
fn streamed<T: Serialize + ?Sized>(x: &T) -> String {
    let text = serde_json::to_string(x).unwrap();
    assert_eq!(text, x.to_json_value().to_string());
    text
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
