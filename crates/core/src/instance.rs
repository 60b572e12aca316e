//! Query instances: services + communication costs + optional extras.

use crate::comm::CommMatrix;
use crate::error::ModelError;
use crate::precedence::PrecedenceDag;
use crate::service::{Service, ServiceId};
use std::fmt;

/// A decentralized service query: the full input to the ordering problem.
///
/// An instance bundles the per-service costs and selectivities, the
/// heterogeneous inter-service transfer costs `t_{i,j}`, optional per-service
/// *sink* delivery costs (the transfer of final results to the consumer —
/// zero by default, as in the paper), and optional precedence constraints.
///
/// Construct instances through [`QueryInstanceBuilder`]; every accessor on a
/// built instance can assume the validated invariants (matching dimensions,
/// finite non-negative parameters, acyclic precedence).
///
/// # Examples
///
/// ```
/// use dsq_core::{QueryInstance, Service, CommMatrix};
///
/// let instance = QueryInstance::builder()
///     .service(Service::new(0.4, 0.5).with_name("history-filter"))
///     .service(Service::new(0.9, 3.0).with_name("card-lookup"))
///     .comm(CommMatrix::uniform(2, 0.1))
///     .build()?;
/// assert_eq!(instance.len(), 2);
/// assert_eq!(instance.cost(1), 0.9);
/// assert_eq!(instance.transfer(0, 1), 0.1);
/// # Ok::<(), dsq_core::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QueryInstance {
    name: String,
    services: Vec<Service>,
    comm: CommMatrix,
    sink: Vec<f64>,
    precedence: Option<PrecedenceDag>,
}

impl QueryInstance {
    /// Starts building an instance.
    pub fn builder() -> QueryInstanceBuilder {
        QueryInstanceBuilder::new()
    }

    /// Convenience constructor for the common services + matrix case.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`QueryInstanceBuilder::build`].
    pub fn from_parts(services: Vec<Service>, comm: CommMatrix) -> Result<Self, ModelError> {
        QueryInstanceBuilder::new().services(services).comm(comm).build()
    }

    /// A descriptive name (defaults to `"query"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of services `N`.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// Instances are never empty; always `false`. Provided for API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The services, indexed by [`ServiceId`].
    pub fn services(&self) -> &[Service] {
        &self.services
    }

    /// The service with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is out of range.
    pub fn service(&self, id: ServiceId) -> &Service {
        &self.services[id.index()]
    }

    /// Per-tuple processing cost `c_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn cost(&self, i: usize) -> f64 {
        self.services[i].cost()
    }

    /// Selectivity `σ_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn selectivity(&self, i: usize) -> f64 {
        self.services[i].selectivity()
    }

    /// Per-tuple transfer cost `t_{i,j}`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[inline]
    pub fn transfer(&self, i: usize, j: usize) -> f64 {
        self.comm.get(i, j)
    }

    /// The communication matrix.
    pub fn comm(&self) -> &CommMatrix {
        &self.comm
    }

    /// Per-tuple cost of delivering final results from service `i` to the
    /// consumer (zero unless configured).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn sink_cost(&self, i: usize) -> f64 {
        self.sink[i]
    }

    /// All per-service sink delivery costs, indexed by service.
    ///
    /// Bulk accessor for consumers that snapshot the instance into flat
    /// arrays (e.g. the optimizer's
    /// [`SearchContext`](crate::bnb::SearchContext)).
    #[inline]
    pub fn sink_costs(&self) -> &[f64] {
        &self.sink
    }

    /// The precedence constraints, if any.
    pub fn precedence(&self) -> Option<&PrecedenceDag> {
        self.precedence.as_ref()
    }

    /// Whether any service has selectivity above one.
    pub fn has_proliferative(&self) -> bool {
        self.services.iter().any(Service::is_proliferative)
    }

    /// Whether any precedence constraint is present.
    pub fn has_precedence(&self) -> bool {
        self.precedence.as_ref().is_some_and(|p| !p.is_empty())
    }

    /// A copy of this instance with every off-diagonal transfer cost
    /// replaced by `t` — the homogeneous-network relaxation solved exactly
    /// by Srivastava et al. (VLDB'06). Sink costs are preserved.
    pub fn with_uniform_comm(&self, t: f64) -> QueryInstance {
        QueryInstance {
            name: format!("{}-uniform", self.name),
            services: self.services.clone(),
            comm: CommMatrix::uniform(self.len(), t),
            sink: self.sink.clone(),
            precedence: self.precedence.clone(),
        }
    }
}

impl fmt::Display for QueryInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} ({} services)", self.name, self.len())?;
        for (i, s) in self.services.iter().enumerate() {
            writeln!(f, "  WS{i}: {s}")?;
        }
        Ok(())
    }
}

/// Incremental builder for [`QueryInstance`], validating on
/// [`build`](Self::build).
#[derive(Debug, Default)]
pub struct QueryInstanceBuilder {
    name: Option<String>,
    services: Vec<Service>,
    comm: Option<CommMatrix>,
    sink: Option<Vec<f64>>,
    precedence: Option<PrecedenceDag>,
}

impl QueryInstanceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        QueryInstanceBuilder::default()
    }

    /// Sets a descriptive name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Appends one service.
    pub fn service(mut self, service: Service) -> Self {
        self.services.push(service);
        self
    }

    /// Appends many services.
    pub fn services(mut self, services: impl IntoIterator<Item = Service>) -> Self {
        self.services.extend(services);
        self
    }

    /// Sets the communication matrix (required).
    pub fn comm(mut self, comm: CommMatrix) -> Self {
        self.comm = Some(comm);
        self
    }

    /// Sets per-service sink delivery costs (defaults to all zeros).
    pub fn sink(mut self, sink: Vec<f64>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Sets precedence constraints.
    pub fn precedence(mut self, precedence: PrecedenceDag) -> Self {
        self.precedence = Some(precedence);
        self
    }

    /// Validates and builds the instance.
    ///
    /// # Errors
    ///
    /// * [`ModelError::EmptyInstance`] — no services were added.
    /// * [`ModelError::DimensionMismatch`] — the communication matrix, sink
    ///   vector, or precedence DAG disagree with the service count, or the
    ///   matrix is missing.
    /// * [`ModelError::InvalidValue`] — a sink cost is NaN, infinite, or
    ///   negative.
    /// * [`ModelError::PrecedenceCycle`] — the precedence DAG has a cycle.
    pub fn build(self) -> Result<QueryInstance, ModelError> {
        let n = self.services.len();
        if n == 0 {
            return Err(ModelError::EmptyInstance);
        }
        let comm = self.comm.ok_or(ModelError::DimensionMismatch {
            what: "communication matrix",
            expected: n,
            found: 0,
        })?;
        if comm.len() != n {
            return Err(ModelError::DimensionMismatch {
                what: "communication matrix",
                expected: n,
                found: comm.len(),
            });
        }
        let sink = self.sink.unwrap_or_else(|| vec![0.0; n]);
        if sink.len() != n {
            return Err(ModelError::DimensionMismatch {
                what: "sink cost vector",
                expected: n,
                found: sink.len(),
            });
        }
        for &v in &sink {
            if !v.is_finite() || v < 0.0 {
                return Err(ModelError::InvalidValue { what: "sink cost", value: v });
            }
        }
        if let Some(p) = &self.precedence {
            if p.len() != n {
                return Err(ModelError::DimensionMismatch {
                    what: "precedence DAG",
                    expected: n,
                    found: p.len(),
                });
            }
            p.validate()?;
        }
        Ok(QueryInstance {
            name: self.name.unwrap_or_else(|| "query".into()),
            services: self.services,
            comm,
            sink,
            precedence: self.precedence,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_services() -> Vec<Service> {
        vec![Service::new(1.0, 0.5), Service::new(2.0, 1.5)]
    }

    #[test]
    fn builder_happy_path() {
        let inst = QueryInstance::builder()
            .name("demo")
            .services(two_services())
            .comm(CommMatrix::uniform(2, 0.3))
            .sink(vec![0.1, 0.2])
            .build()
            .unwrap();
        assert_eq!(inst.name(), "demo");
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.cost(0), 1.0);
        assert_eq!(inst.selectivity(1), 1.5);
        assert_eq!(inst.transfer(0, 1), 0.3);
        assert_eq!(inst.sink_cost(1), 0.2);
        assert!(inst.has_proliferative());
        assert!(!inst.has_precedence());
        assert_eq!(inst.service(ServiceId::new(0)).cost(), 1.0);
    }

    #[test]
    fn from_parts_defaults() {
        let inst = QueryInstance::from_parts(two_services(), CommMatrix::zeros(2)).unwrap();
        assert_eq!(inst.name(), "query");
        assert_eq!(inst.sink_cost(0), 0.0);
        assert!(!inst.is_empty());
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            QueryInstance::builder().comm(CommMatrix::zeros(0)).build().unwrap_err(),
            ModelError::EmptyInstance
        );
    }

    #[test]
    fn missing_or_mismatched_matrix_rejected() {
        let err = QueryInstance::builder().services(two_services()).build().unwrap_err();
        assert!(matches!(err, ModelError::DimensionMismatch { what: "communication matrix", .. }));
        let err = QueryInstance::builder()
            .services(two_services())
            .comm(CommMatrix::zeros(3))
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::DimensionMismatch { found: 3, .. }));
    }

    #[test]
    fn sink_validation() {
        let base = || QueryInstance::builder().services(two_services()).comm(CommMatrix::zeros(2));
        let err = base().sink(vec![0.0]).build().unwrap_err();
        assert!(matches!(err, ModelError::DimensionMismatch { what: "sink cost vector", .. }));
        let err = base().sink(vec![0.0, -1.0]).build().unwrap_err();
        assert!(matches!(err, ModelError::InvalidValue { .. }));
    }

    #[test]
    fn precedence_validation() {
        let mut dag = PrecedenceDag::new(2).unwrap();
        dag.add_edge(0, 1).unwrap();
        let inst = QueryInstance::builder()
            .services(two_services())
            .comm(CommMatrix::zeros(2))
            .precedence(dag)
            .build()
            .unwrap();
        assert!(inst.has_precedence());

        let mut cyclic = PrecedenceDag::new(2).unwrap();
        cyclic.add_edge(0, 1).unwrap();
        cyclic.add_edge(1, 0).unwrap();
        let err = QueryInstance::builder()
            .services(two_services())
            .comm(CommMatrix::zeros(2))
            .precedence(cyclic)
            .build()
            .unwrap_err();
        assert_eq!(err, ModelError::PrecedenceCycle);

        let wrong_size = PrecedenceDag::new(3).unwrap();
        let err = QueryInstance::builder()
            .services(two_services())
            .comm(CommMatrix::zeros(2))
            .precedence(wrong_size)
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::DimensionMismatch { what: "precedence DAG", .. }));
    }

    #[test]
    fn uniform_relaxation_replaces_comm() {
        let inst = QueryInstance::from_parts(
            two_services(),
            CommMatrix::from_rows(vec![vec![0.0, 5.0], vec![1.0, 0.0]]).unwrap(),
        )
        .unwrap();
        let uniform = inst.with_uniform_comm(3.0);
        assert_eq!(uniform.transfer(0, 1), 3.0);
        assert_eq!(uniform.transfer(1, 0), 3.0);
        assert_eq!(uniform.cost(0), inst.cost(0));
        assert!(uniform.name().ends_with("uniform"));
    }

    #[test]
    fn display_lists_services() {
        let inst = QueryInstance::from_parts(two_services(), CommMatrix::zeros(2)).unwrap();
        let text = inst.to_string();
        assert!(text.contains("2 services"));
        assert!(text.contains("WS0"));
        assert!(text.contains("WS1"));
    }
}
