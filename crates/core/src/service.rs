//! Services and service identifiers.

use std::fmt;

/// Index of a service within a [`QueryInstance`](crate::QueryInstance).
///
/// Service identifiers are dense indices `0..n`; they index the cost,
/// selectivity and communication structures directly.
///
/// # Examples
///
/// ```
/// use dsq_core::ServiceId;
///
/// let id = ServiceId::new(3);
/// assert_eq!(id.index(), 3);
/// assert_eq!(id.to_string(), "WS3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceId(usize);

impl ServiceId {
    /// Creates an identifier from a dense index.
    pub fn new(index: usize) -> Self {
        ServiceId(index)
    }

    /// The dense index of this service.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WS{}", self.0)
    }
}

impl From<usize> for ServiceId {
    fn from(index: usize) -> Self {
        ServiceId(index)
    }
}

/// A web service participating in a pipelined query.
///
/// Following §2 of the paper, a service is characterized by
///
/// * its **cost** `c_i`: the mean time to process one input tuple, and
/// * its **selectivity** `σ_i`: the mean ratio of output to input tuples.
///   `σ < 1` models filtering services, `σ > 1` proliferative ones (e.g. a
///   lookup returning several credit-card numbers per person).
///
/// # Examples
///
/// ```
/// use dsq_core::Service;
///
/// let filter = Service::new(0.2, 0.5).with_name("payment-history-filter");
/// assert_eq!(filter.cost(), 0.2);
/// assert_eq!(filter.selectivity(), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Service {
    cost: f64,
    selectivity: f64,
    name: Option<String>,
}

impl Service {
    /// Creates a service with the given per-tuple cost and selectivity.
    ///
    /// # Panics
    ///
    /// Panics if either value is NaN, infinite, or negative — such values
    /// are programmer errors, not data conditions. Aggregate validation of
    /// whole instances goes through
    /// [`QueryInstanceBuilder`](crate::QueryInstanceBuilder) instead.
    pub fn new(cost: f64, selectivity: f64) -> Self {
        assert!(
            cost.is_finite() && cost >= 0.0,
            "service cost must be finite and non-negative, got {cost}"
        );
        assert!(
            selectivity.is_finite() && selectivity >= 0.0,
            "service selectivity must be finite and non-negative, got {selectivity}"
        );
        Service { cost, selectivity, name: None }
    }

    /// Attaches a human-readable name (used in displays and reports).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Mean per-tuple processing time `c_i`.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Mean output/input tuple ratio `σ_i`.
    pub fn selectivity(&self) -> f64 {
        self.selectivity
    }

    /// The service's name, if one was attached.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Whether the service produces more tuples than it consumes (`σ > 1`).
    pub fn is_proliferative(&self) -> bool {
        self.selectivity > 1.0
    }
}

impl fmt::Display for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.name {
            Some(name) => write!(f, "{name}(c={}, σ={})", self.cost, self.selectivity),
            None => write!(f, "service(c={}, σ={})", self.cost, self.selectivity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip_and_display() {
        let id = ServiceId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "WS7");
        assert_eq!(ServiceId::from(7), id);
    }

    #[test]
    fn ids_order_by_index() {
        assert!(ServiceId::new(1) < ServiceId::new(2));
    }

    #[test]
    fn service_accessors() {
        let s = Service::new(1.5, 0.25);
        assert_eq!(s.cost(), 1.5);
        assert_eq!(s.selectivity(), 0.25);
        assert_eq!(s.name(), None);
        assert!(!s.is_proliferative());
    }

    #[test]
    fn proliferative_classification() {
        assert!(Service::new(0.0, 2.5).is_proliferative());
        assert!(!Service::new(0.0, 1.0).is_proliferative());
    }

    #[test]
    fn named_display() {
        let s = Service::new(0.5, 0.8).with_name("card-lookup");
        assert_eq!(s.name(), Some("card-lookup"));
        assert!(s.to_string().starts_with("card-lookup"));
        let anon = Service::new(0.5, 0.8);
        assert!(anon.to_string().starts_with("service"));
    }

    #[test]
    #[should_panic(expected = "cost must be finite")]
    fn negative_cost_panics() {
        Service::new(-0.1, 1.0);
    }

    #[test]
    #[should_panic(expected = "selectivity must be finite")]
    fn nan_selectivity_panics() {
        Service::new(0.1, f64::NAN);
    }

    #[test]
    fn zero_selectivity_is_allowed() {
        // A service that filters out everything is legal (downstream terms
        // become zero under Eq. 1).
        let s = Service::new(0.1, 0.0);
        assert_eq!(s.selectivity(), 0.0);
    }
}
