//! The shapes both JSON suites run over: one type of every shape the
//! derive accepts, samplers for them and for the awkward strings and
//! floats, and one value of every [`TraceEvent`] variant.

#![allow(dead_code)]

use gridflow_telemetry::{Label, TraceEvent};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Unit;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Nothing();

#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Empty {}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Newtype(pub Option<f64>);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Pair(pub i64, pub String);

/// Fields declared out of key order, a raw identifier, and skipped
/// fields first, in the middle and last once sorted.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Named<T> {
    pub zeta: T,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub alpha: Option<f64>,
    pub mid: Vec<T>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub nested: Option<Newtype>,
    pub r#type: u8,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub zz: Option<String>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct AllSkipped {
    #[serde(skip_serializing_if = "Option::is_none")]
    pub b: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub a: Option<u8>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub enum Shape<T> {
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
pub const AWKWARD: [char; 16] = [
    'a', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}', '\u{7f}', 'é',
    '語', '😀',
];

pub fn text() -> Sampler<String> {
    prop::collection::vec(0usize..AWKWARD.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| AWKWARD[i]).collect())
}

/// The float categories the printer tells apart: signed zeros, integral
/// below and at the `.0`-suffix bound, fractional, huge, tiny, and the
/// non-finite ones that print as `null` without being null.
pub fn float() -> Sampler<f64> {
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

pub fn named() -> Sampler<Named<String>> {
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

pub fn shape() -> Sampler<Shape<f64>> {
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

/// One value of every [`TraceEvent`] variant, text fields awkward.
pub fn one_of_each() -> Vec<TraceEvent> {
    use TraceEvent::*;
    let s = || "a\"b\\c\n\u{1}é".to_string();
    let l = || Label::from(s());
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
            case: l(),
            tick: 1,
            reason: Some(s()),
        },
        CaseAdmitted {
            case: l(),
            tick: 1,
            reason: None,
        },
        CaseRejected {
            case: l(),
            reason: s(),
        },
        CaseBlocked {
            case: l(),
            service: l(),
        },
        CaseCompleted {
            case: l(),
            success: true,
        },
        SlotReserved {
            case: l(),
            container: s(),
        },
        SlotReleased {
            case: l(),
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
