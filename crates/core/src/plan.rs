//! Linear execution plans.

use crate::error::ModelError;
use crate::precedence::PrecedenceDag;
use crate::service::ServiceId;
use std::fmt;

/// A complete linear ordering of the services of a query instance.
///
/// Invariant: a `Plan` over `n` services is always a permutation of
/// `0..n`; constructors enforce this.
///
/// # Examples
///
/// ```
/// use dsq_core::Plan;
///
/// let plan = Plan::new(vec![2, 0, 1])?;
/// assert_eq!(plan.len(), 3);
/// assert_eq!(plan.to_string(), "WS2 → WS0 → WS1");
/// # Ok::<(), dsq_core::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Plan {
    order: Vec<ServiceId>,
}

impl Plan {
    /// Creates a plan from a permutation of `0..order.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPlan`] if the order is empty, contains
    /// an out-of-range index, or repeats a service.
    pub fn new(order: Vec<usize>) -> Result<Self, ModelError> {
        let n = order.len();
        if n == 0 {
            return Err(ModelError::InvalidPlan("plan is empty".into()));
        }
        let mut seen = vec![false; n];
        for &s in &order {
            if s >= n {
                return Err(ModelError::InvalidPlan(format!(
                    "service index {s} out of range for {n} services"
                )));
            }
            if seen[s] {
                return Err(ModelError::InvalidPlan(format!("service {s} appears twice")));
            }
            seen[s] = true;
        }
        Ok(Plan { order: order.into_iter().map(ServiceId::new).collect() })
    }

    /// The identity plan `0, 1, …, n-1`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn identity(n: usize) -> Self {
        assert!(n > 0, "a plan must contain at least one service");
        Plan { order: (0..n).map(ServiceId::new).collect() }
    }

    /// Number of services in the plan.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// A plan is never empty; always `false`. Provided for API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The ordered services.
    pub fn services(&self) -> &[ServiceId] {
        &self.order
    }

    /// The service at `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position >= len`.
    pub fn service_at(&self, position: usize) -> ServiceId {
        self.order[position]
    }

    /// Iterates over the services in execution order.
    pub fn iter(&self) -> std::slice::Iter<'_, ServiceId> {
        self.order.iter()
    }

    /// The plan as plain indices (convenient for numeric code).
    pub fn indices(&self) -> Vec<usize> {
        self.order.iter().map(|s| s.index()).collect()
    }

    /// Whether this plan satisfies the given precedence constraints.
    pub fn satisfies(&self, precedence: &PrecedenceDag) -> bool {
        precedence.is_feasible_order(&self.indices())
    }
}

impl<'a> IntoIterator for &'a Plan {
    type Item = &'a ServiceId;
    type IntoIter = std::slice::Iter<'a, ServiceId>;

    fn into_iter(self) -> Self::IntoIter {
        self.order.iter()
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.order.iter().enumerate() {
            if i > 0 {
                write!(f, " → ")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_permutation_accepted() {
        let p = Plan::new(vec![1, 2, 0]).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.indices(), vec![1, 2, 0]);
        assert_eq!(p.service_at(0), ServiceId::new(1));
    }

    #[test]
    fn rejects_empty_duplicate_and_out_of_range() {
        assert!(matches!(Plan::new(vec![]), Err(ModelError::InvalidPlan(_))));
        assert!(matches!(Plan::new(vec![0, 0]), Err(ModelError::InvalidPlan(_))));
        assert!(matches!(Plan::new(vec![0, 2]), Err(ModelError::InvalidPlan(_))));
    }

    #[test]
    fn identity_is_sorted() {
        let p = Plan::identity(4);
        assert_eq!(p.indices(), vec![0, 1, 2, 3]);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one service")]
    fn identity_of_zero_panics() {
        Plan::identity(0);
    }

    #[test]
    fn display_uses_arrows() {
        let p = Plan::new(vec![2, 0, 1]).unwrap();
        assert_eq!(p.to_string(), "WS2 → WS0 → WS1");
    }

    #[test]
    fn iteration_orders_match() {
        let p = Plan::new(vec![2, 1, 0]).unwrap();
        let via_iter: Vec<usize> = p.iter().map(|s| s.index()).collect();
        let via_ref: Vec<usize> = (&p).into_iter().map(|s| s.index()).collect();
        assert_eq!(via_iter, vec![2, 1, 0]);
        assert_eq!(via_iter, via_ref);
    }

    #[test]
    fn satisfies_precedence() {
        let mut dag = PrecedenceDag::new(3).unwrap();
        dag.add_edge(2, 0).unwrap();
        assert!(Plan::new(vec![2, 0, 1]).unwrap().satisfies(&dag));
        assert!(!Plan::new(vec![0, 2, 1]).unwrap().satisfies(&dag));
    }
}
