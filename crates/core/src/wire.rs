//! `serde` implementations for the core types crossing the service/API
//! boundary.
//!
//! The service layer accepts tasks and jurors and returns selections
//! over the wire; its snapshot codec persists AltrM answers. Both need
//! [`Juror`], [`CrowdModel`], [`Selection`], [`SolverStats`] and
//! [`JuryError`] to round-trip through JSON. Solver configurations have no wire form:
//! the service runs one. The implementations are hand-written against
//! the vendored `serde` (see `crates/shims/serde`); moving to crates.io
//! serde later replaces them with derives.
//!
//! Encoding choices:
//! * structs become objects with snake_case field names (derive-compatible);
//! * [`CrowdModel`] uses an adjacently-tagged object
//!   (`{"model": "altruism"}` / `{"model": "pay-as-you-go", "budget": b}`);
//! * [`JuryError`] uses a kind-tagged object
//!   (`{"kind": "no-feasible-jury", "budget": b}`) so clients can switch
//!   on the kind without parsing prose;
//! * HTTP front-ends wrap every response in an [`Envelope`]:
//!   `{"ok": true, "result": …}` on success,
//!   `{"ok": false, "error": {"kind": …, "message": …}}` on failure
//!   (plus `retry_after_ms` on backpressure rejections);
//! * counter records (the service's and front-end's `/stats` payloads)
//!   are declared once through [`stats_record!`](crate::stats_record),
//!   which writes their struct and serde from a single field table.

use crate::error::JuryError;
use crate::juror::{ErrorRate, Juror};
use crate::model::CrowdModel;
use crate::problem::{Selection, SolverStats};
use serde::{Deserialize, Error, Serialize, Value};

impl Serialize for Juror {
    fn to_value(&self) -> Value {
        Value::object([
            ("id", self.id.to_value()),
            ("error_rate", self.epsilon().to_value()),
            ("cost", self.cost.to_value()),
        ])
    }
}

impl Deserialize for Juror {
    /// Re-validates on the way in: wire jurors are untrusted, so the
    /// Definition-4 rate constraint and the finite-cost constraint are
    /// enforced exactly like [`Juror::try_new`].
    fn from_value(value: &Value) -> Result<Self, Error> {
        let id: u32 = field(value, "id")?;
        let rate: f64 = field(value, "error_rate")?;
        let cost: f64 = field(value, "cost")?;
        let rate = ErrorRate::new(rate).map_err(|e| Error::custom(e.to_string()))?;
        Juror::try_new(id, rate, cost).map_err(|e| Error::custom(e.to_string()))
    }
}

impl Serialize for JuryError {
    fn to_value(&self) -> Value {
        let kind = |k: &str| ("kind", k.to_value());
        match *self {
            Self::InvalidErrorRate(v) => {
                Value::object([kind("invalid-error-rate"), ("value", v.to_value())])
            }
            Self::InvalidCost(v) => Value::object([kind("invalid-cost"), ("value", v.to_value())]),
            Self::EvenJurySize(n) => {
                Value::object([kind("even-jury-size"), ("size", n.to_value())])
            }
            Self::EmptyJury => Value::object([kind("empty-jury")]),
            Self::VotingSizeMismatch { expected, actual } => Value::object([
                kind("voting-size-mismatch"),
                ("expected", expected.to_value()),
                ("actual", actual.to_value()),
            ]),
            Self::EmptyPool => Value::object([kind("empty-pool")]),
            Self::NoFeasibleJury { budget } => {
                Value::object([kind("no-feasible-jury"), ("budget", budget.to_value())])
            }
            Self::InvalidBudget(b) => {
                Value::object([kind("invalid-budget"), ("budget", b.to_value())])
            }
            Self::PoolTooLargeForExact { size, limit } => Value::object([
                kind("pool-too-large-for-exact"),
                ("size", size.to_value()),
                ("limit", limit.to_value()),
            ]),
        }
    }
}

impl Deserialize for JuryError {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value.get("kind").and_then(Value::as_str) {
            Some("invalid-error-rate") => Ok(Self::InvalidErrorRate(float_field(value, "value")?)),
            Some("invalid-cost") => Ok(Self::InvalidCost(float_field(value, "value")?)),
            Some("even-jury-size") => Ok(Self::EvenJurySize(field(value, "size")?)),
            Some("empty-jury") => Ok(Self::EmptyJury),
            Some("voting-size-mismatch") => Ok(Self::VotingSizeMismatch {
                expected: field(value, "expected")?,
                actual: field(value, "actual")?,
            }),
            Some("empty-pool") => Ok(Self::EmptyPool),
            Some("no-feasible-jury") => {
                Ok(Self::NoFeasibleJury { budget: float_field(value, "budget")? })
            }
            Some("invalid-budget") => Ok(Self::InvalidBudget(float_field(value, "budget")?)),
            Some("pool-too-large-for-exact") => Ok(Self::PoolTooLargeForExact {
                size: field(value, "size")?,
                limit: field(value, "limit")?,
            }),
            _ => Err(Error::expected("a jury error object", value)),
        }
    }
}

/// A structured wire error: a machine-readable kebab-case kind, a human
/// message, and (for backpressure rejections) a retry hint.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Kebab-case error class (e.g. `"unknown-pool"`, `"overloaded"`).
    pub kind: String,
    /// Human-readable description.
    pub message: String,
    /// How long the client should back off before retrying, when the
    /// error is a transient admission-control rejection.
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// A plain error with no retry hint.
    pub fn new(kind: impl Into<String>, message: impl Into<String>) -> Self {
        Self { kind: kind.into(), message: message.into(), retry_after_ms: None }
    }

    /// A backpressure rejection carrying a retry hint.
    pub fn with_retry_after(mut self, retry_after_ms: u64) -> Self {
        self.retry_after_ms = Some(retry_after_ms);
        self
    }
}

impl Serialize for WireError {
    fn to_value(&self) -> Value {
        let mut fields = vec![("kind", self.kind.to_value()), ("message", self.message.to_value())];
        if let Some(ms) = self.retry_after_ms {
            fields.push(("retry_after_ms", ms.to_value()));
        }
        Value::object(fields)
    }
}

impl Deserialize for WireError {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(Self {
            kind: field(value, "kind")?,
            message: field(value, "message")?,
            retry_after_ms: match value.get("retry_after_ms") {
                None | Some(Value::Null) => None,
                Some(v) => Some(u64::from_value(v)?),
            },
        })
    }
}

/// The uniform response envelope HTTP front-ends speak: every body is
/// `{"ok": true, "result": …}` or `{"ok": false, "error": …}`, so a
/// client can always parse the body before (or instead of) switching on
/// the HTTP status code.
#[derive(Debug, Clone, PartialEq)]
pub enum Envelope {
    /// Success, carrying the endpoint-specific result value.
    Ok(Value),
    /// Failure, carrying a structured [`WireError`].
    Err(WireError),
}

impl Envelope {
    /// Wraps a successful result.
    pub fn ok<T: Serialize>(result: &T) -> Self {
        Self::Ok(result.to_value())
    }

    /// Wraps an error.
    pub fn err(error: WireError) -> Self {
        Self::Err(error)
    }

    /// The wire form, moving the result in rather than copying it.
    pub fn into_value(self) -> Value {
        match self {
            Self::Ok(result) => Value::object([("ok", true.to_value()), ("result", result)]),
            Self::Err(error) => {
                Value::object([("ok", false.to_value()), ("error", error.to_value())])
            }
        }
    }

    /// Decodes the wire form, moving the result out rather than copying
    /// it. A repeated key reads as its first occurrence, like
    /// [`Value::get`].
    pub fn from_owned(value: Value) -> Result<Self, Error> {
        match (value.get("ok").and_then(Value::as_bool), value) {
            (Some(true), Value::Object(fields)) => fields
                .into_iter()
                .find(|(key, _)| key == "result")
                .map(|(_, result)| Self::Ok(result))
                .ok_or_else(|| Error::missing_field("result")),
            (Some(false), value) => Ok(Self::Err(field(&value, "error")?)),
            (_, value) => Err(Error::expected("an envelope with a boolean `ok`", &value)),
        }
    }

    /// Unwraps into a `Result` for client-side consumption.
    pub fn into_result(self) -> Result<Value, WireError> {
        match self {
            Self::Ok(v) => Ok(v),
            Self::Err(e) => Err(e),
        }
    }
}

impl Serialize for Envelope {
    fn to_value(&self) -> Value {
        self.clone().into_value()
    }
}

impl Deserialize for Envelope {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Self::from_owned(value.clone())
    }
}

/// Reads an `f64` field, mapping JSON `null` back to NaN (the writer
/// emits `null` for non-finite floats, mirroring serde_json).
fn float_field(value: &Value, name: &str) -> Result<f64, Error> {
    match value.get(name) {
        None => Err(Error::missing_field(name)),
        Some(Value::Null) => Ok(f64::NAN),
        Some(v) => f64::from_value(v),
    }
}

impl Serialize for SolverStats {
    fn to_value(&self) -> Value {
        Value::object([
            ("jer_evaluations", self.jer_evaluations.to_value()),
            ("pruned_by_bound", self.pruned_by_bound.to_value()),
            ("candidates_considered", self.candidates_considered.to_value()),
        ])
    }
}

impl Deserialize for SolverStats {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(Self {
            jer_evaluations: field(value, "jer_evaluations")?,
            pruned_by_bound: field(value, "pruned_by_bound")?,
            candidates_considered: field(value, "candidates_considered")?,
        })
    }
}

impl Serialize for Selection {
    fn to_value(&self) -> Value {
        Value::object([
            ("members", self.members.to_value()),
            ("jer", self.jer.to_value()),
            ("total_cost", self.total_cost.to_value()),
            ("stats", self.stats.to_value()),
        ])
    }
}

impl Deserialize for Selection {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(Self {
            members: field(value, "members")?,
            jer: field(value, "jer")?,
            total_cost: field(value, "total_cost")?,
            stats: field(value, "stats")?,
        })
    }
}

impl Serialize for CrowdModel {
    fn to_value(&self) -> Value {
        match *self {
            CrowdModel::Altruism => Value::object([("model", "altruism".to_value())]),
            CrowdModel::PayAsYouGo { budget } => Value::object([
                ("model", "pay-as-you-go".to_value()),
                ("budget", budget.to_value()),
            ]),
        }
    }
}

impl Deserialize for CrowdModel {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value.get("model").and_then(Value::as_str) {
            Some("altruism") => Ok(CrowdModel::Altruism),
            Some("pay-as-you-go") => {
                let budget: f64 = field(value, "budget")?;
                CrowdModel::pay_as_you_go(budget)
                    .map_err(|e| Error::custom(format!("invalid budget: {e}")))
            }
            _ => Err(Error::expected("a crowd model object", value)),
        }
    }
}

/// Reads a typed object field.
fn field<T: Deserialize>(value: &Value, name: &str) -> Result<T, Error> {
    T::from_value(value.get(name).ok_or_else(|| Error::missing_field(name))?)
}

/// Declares a counter record from one field table: the public struct
/// (`Debug, Clone, Copy, Default, PartialEq, Eq`) and its serde. The wire
/// form is an object keyed by field name in declaration order. Decoding
/// is lax so `/stats` readers span versions: a missing key reads as the
/// default, an unknown key is ignored, a non-object is refused. A
/// trailing `atomic Name;` adds the crate-private `Name`, one `AtomicU64`
/// per field (all fields `u64`), whose `snapshot()` loads them, relaxed,
/// into the record.
///
/// ```
/// jury_core::stats_record! {
///     /// Work done so far.
///     pub struct Tally {
///         /// Tasks seen.
///         pub seen: u64,
///     }
/// }
///
/// assert_eq!(serde::json::to_string(&Tally { seen: 3 }), r#"{"seen":3}"#);
/// let lax: Tally = serde::json::from_str(r#"{"newer": 9}"#).unwrap();
/// assert_eq!(lax, Tally { seen: 0 });
/// ```
#[macro_export]
macro_rules! stats_record {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$field_meta:meta])* pub $field:ident: $ty:ty, )*
        }
        atomic $mirror:ident;
    ) => {
        $crate::stats_record! {
            $(#[$meta])*
            pub struct $name {
                $( $(#[$field_meta])* pub $field: $ty, )*
            }
        }

        #[derive(Default)]
        pub(crate) struct $mirror {
            $( pub(crate) $field: ::std::sync::atomic::AtomicU64, )*
        }

        impl $mirror {
            fn snapshot(&self) -> $name {
                $name { $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )* }
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$field_meta:meta])* pub $field:ident: $ty:ty, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$field_meta])* pub $field: $ty, )*
        }

        impl $crate::wire::__private::Serialize for $name {
            fn to_value(&self) -> $crate::wire::__private::Value {
                $crate::wire::__private::Value::object([$((
                    stringify!($field),
                    $crate::wire::__private::Serialize::to_value(&self.$field),
                ),)*])
            }
        }

        impl $crate::wire::__private::Deserialize for $name {
            fn from_value(
                value: &$crate::wire::__private::Value,
            ) -> Result<Self, $crate::wire::__private::Error> {
                $crate::wire::__private::expect_object(value, stringify!($name))?;
                Ok(Self {$(
                    $field: $crate::wire::__private::lax_field(value, stringify!($field))?,
                )*})
            }
        }
    };
}

/// Support for [`stats_record!`](crate::stats_record) expansions in other
/// crates; not a public API.
#[doc(hidden)]
pub mod __private {
    pub use serde::{Deserialize, Error, Serialize, Value};

    /// Refuses anything but a JSON object.
    pub fn expect_object(value: &Value, record: &str) -> Result<(), Error> {
        match value {
            Value::Object(_) => Ok(()),
            _ => Err(Error::expected(&format!("a `{record}` object"), value)),
        }
    }

    /// Reads one record field; a missing key reads as the default.
    pub fn lax_field<T: Deserialize + Default>(value: &Value, name: &str) -> Result<T, Error> {
        value.get(name).map_or(Ok(T::default()), T::from_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::altr::{AltrAlg, AltrConfig};
    use crate::juror::pool_from_rates;
    use serde::json;

    fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: &T) {
        let text = json::to_string(value);
        let back: T = json::from_str(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(&back, value, "{text}");
    }

    #[test]
    fn selection_round_trips_with_exact_floats() {
        let pool = pool_from_rates(&[0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4]).unwrap();
        let sel = AltrAlg::solve(&pool, &AltrConfig::default()).unwrap();
        round_trip(&sel);
        // Bit-exactness of the JER through the JSON text matters for the
        // service equivalence guarantees.
        let text = json::to_string(&sel);
        let back: Selection = json::from_str(&text).unwrap();
        assert_eq!(back.jer.to_bits(), sel.jer.to_bits());
        // Integral floats take the writer's integer branch, the others
        // its float branch; both must come back bit for bit.
        let exact = 9_007_199_254_740_992.0; // 2⁵³
        for (jer, total_cost) in
            [(0.0, 2.0), (1.0, exact), (0.0, exact + 2.0), (1.0, 0.1 + 0.2), (sel.jer, -0.0)]
        {
            let sel = Selection { jer, total_cost, ..sel.clone() };
            let back: Selection = json::from_str(&json::to_string(&sel)).unwrap();
            assert_eq!(back.jer.to_bits(), jer.to_bits());
            assert_eq!(back.total_cost.to_bits(), total_cost.to_bits());
            assert_eq!(back.members, sel.members);
        }
        round_trip(&SolverStats {
            jer_evaluations: 12,
            pruned_by_bound: 3,
            candidates_considered: 20,
        });
        assert!(json::from_str::<Selection>("{}").is_err());
    }

    #[test]
    fn crowd_models_round_trip() {
        round_trip(&CrowdModel::Altruism);
        round_trip(&CrowdModel::PayAsYouGo { budget: 1.25 });
        assert!(
            json::from_str::<CrowdModel>(r#"{"model": "pay-as-you-go", "budget": -1}"#).is_err()
        );
        assert!(json::from_str::<CrowdModel>(r#"{"model": "unknown"}"#).is_err());
    }

    #[test]
    fn jurors_round_trip_and_revalidate() {
        round_trip(&Juror::new(7, ErrorRate::new(0.25).unwrap(), 1.5));
        round_trip(&Juror::free(0, ErrorRate::new(0.999).unwrap()));
        // Wire jurors are untrusted: invalid rates and costs are refused.
        assert!(json::from_str::<Juror>(r#"{"id": 1, "error_rate": 1.2, "cost": 0}"#).is_err());
        assert!(json::from_str::<Juror>(r#"{"id": 1, "error_rate": 0.2, "cost": -3}"#).is_err());
        assert!(json::from_str::<Juror>(r#"{"id": 1, "error_rate": 0.2}"#).is_err());
    }

    #[test]
    fn jury_errors_round_trip() {
        for err in [
            JuryError::InvalidErrorRate(1.5),
            JuryError::InvalidCost(-1.0),
            JuryError::EvenJurySize(4),
            JuryError::EmptyJury,
            JuryError::VotingSizeMismatch { expected: 3, actual: 2 },
            JuryError::EmptyPool,
            JuryError::NoFeasibleJury { budget: 0.125 },
            JuryError::InvalidBudget(-2.0),
            JuryError::PoolTooLargeForExact { size: 40, limit: 26 },
        ] {
            round_trip(&err);
        }
        // Non-finite payloads survive as NaN (JSON null), not as a parse
        // failure — the service really does produce InvalidBudget(NaN).
        let text = json::to_string(&JuryError::InvalidBudget(f64::NAN));
        match json::from_str::<JuryError>(&text).unwrap() {
            JuryError::InvalidBudget(b) => assert!(b.is_nan()),
            other => panic!("wrong variant: {other:?}"),
        }
        assert!(json::from_str::<JuryError>(r#"{"kind": "novel"}"#).is_err());
    }

    #[test]
    fn envelopes_round_trip() {
        round_trip(&Envelope::ok(&CrowdModel::PayAsYouGo { budget: 2.0 }));
        round_trip(&Envelope::err(WireError::new("unknown-pool", "unknown pool#9")));
        round_trip(&Envelope::err(
            WireError::new("overloaded", "tenant queue full").with_retry_after(50),
        ));
        let ok = Envelope::ok(&3usize).into_result().unwrap();
        assert_eq!(ok.as_u64(), Some(3));
        let err =
            Envelope::err(WireError::new("bad-request", "no body")).into_result().unwrap_err();
        assert_eq!(err.kind, "bad-request");
        assert!(json::from_str::<Envelope>(r#"{"result": 3}"#).is_err());
        assert!(json::from_str::<Envelope>(r#"{"ok": true}"#).is_err());
        assert!(json::from_str::<Envelope>(r#"{"ok": 1, "result": 3}"#).is_err());
    }

    /// The owned conversions are the envelope codec the borrowing
    /// `Serialize`/`Deserialize` impls delegate to: same values both ways.
    #[test]
    fn owned_envelope_conversions_match_the_borrowing_ones() {
        let pool = pool_from_rates(&[0.1, 0.2, 0.2, 0.3, 0.3]).unwrap();
        let sel = AltrAlg::solve(&pool, &AltrConfig::default()).unwrap();
        for envelope in [
            Envelope::ok(&sel),
            Envelope::err(WireError::new("overloaded", "tenant queue full").with_retry_after(5)),
        ] {
            let value = envelope.to_value();
            assert_eq!(envelope.clone().into_value(), value);
            assert_eq!(Envelope::from_owned(value.clone()).unwrap(), envelope);
            assert_eq!(Envelope::from_value(&value).unwrap(), envelope);
        }
        // A repeated key reads as its first occurrence, as `Value::get` does.
        let twice = json::parse(r#"{"ok": true, "result": 1, "result": 2}"#).unwrap();
        assert_eq!(Envelope::from_owned(twice).unwrap(), Envelope::Ok(Value::Number(1.0)));
    }
}
