//! The archival function registry.
//!
//! The paper faults prior work for applying AI to "a particular tool in a
//! specific context" and calls for "the use of AI to carry out the
//! different archival functions in an integrated way". This module makes
//! the functions themselves first-class, so AI capabilities register
//! against them and coverage/gaps are a queryable fact rather than a
//! narrative claim.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The canonical archival functions (the paper's abstract enumerates
/// "retention and preservation, arrangement and description, management and
/// administration, and access and use"; appraisal and acquisition precede
/// them in the records lifecycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ArchivalFunction {
    /// Deciding what has enduring value.
    Appraisal,
    /// Taking custody (transfer, accessioning).
    Acquisition,
    /// Arrangement and description.
    Description,
    /// Retention scheduling and disposition.
    Retention,
    /// Long-term preservation (fixity, migration).
    Preservation,
    /// Access and use (reference, discovery, redaction).
    Access,
}

impl ArchivalFunction {
    /// All functions, lifecycle order.
    pub const ALL: [ArchivalFunction; 6] = [
        ArchivalFunction::Appraisal,
        ArchivalFunction::Acquisition,
        ArchivalFunction::Description,
        ArchivalFunction::Retention,
        ArchivalFunction::Preservation,
        ArchivalFunction::Access,
    ];
}

/// Maturity of an AI capability registered against a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Maturity {
    /// Exploratory prototype.
    Experimental,
    /// Validated on case studies, human-in-the-loop.
    Assisted,
    /// Approved for autonomous operation within guard thresholds.
    Operational,
}

/// A registered AI capability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Capability {
    /// Capability id (e.g. "sensitivity-review").
    pub id: String,
    /// Model/tool identity behind it.
    pub model_id: String,
    /// What it does.
    pub description: String,
    /// Maturity gate.
    pub maturity: Maturity,
    /// Whether a benefit/risk assessment has been completed (Objective 2);
    /// [`CapabilityRegistry::register`] refuses an `Operational` capability
    /// without one.
    pub risk_assessed: bool,
}

/// Registry mapping functions to capabilities.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CapabilityRegistry {
    by_function: BTreeMap<ArchivalFunction, Vec<Capability>>,
}

impl CapabilityRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a capability under a function. Operational capabilities
    /// must be risk-assessed (Objective 2 is a gate, not advice).
    pub fn register(
        &mut self,
        function: ArchivalFunction,
        capability: Capability,
    ) -> Result<(), String> {
        if capability.maturity == Maturity::Operational && !capability.risk_assessed {
            return Err(format!(
                "capability '{}' cannot be Operational without a completed risk assessment",
                capability.id
            ));
        }
        let slot = self.by_function.entry(function).or_default();
        if slot.iter().any(|c| c.id == capability.id) {
            return Err(format!("capability '{}' already registered", capability.id));
        }
        slot.push(capability);
        Ok(())
    }

    /// Capabilities for one function.
    pub fn for_function(&self, function: ArchivalFunction) -> &[Capability] {
        self.by_function.get(&function).map_or(&[], |v| v.as_slice())
    }

    /// Functions with no registered capability — the integration gaps.
    pub fn uncovered(&self) -> Vec<ArchivalFunction> {
        ArchivalFunction::ALL
            .into_iter()
            .filter(|f| self.for_function(*f).is_empty())
            .collect()
    }

    /// Total registered capabilities.
    pub fn len(&self) -> usize {
        self.by_function.values().map(|v| v.len()).sum()
    }

    /// Whether no capability is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render a coverage table (one line per function).
    pub fn coverage_report(&self) -> String {
        let mut out = String::from("AI capability coverage by archival function\n");
        for f in ArchivalFunction::ALL {
            let caps = self.for_function(f);
            if caps.is_empty() {
                out.push_str(&format!("  {f:?}: — (gap)\n"));
            } else {
                let names: Vec<&str> = caps.iter().map(|c| c.id.as_str()).collect();
                out.push_str(&format!("  {f:?}: {}\n", names.join(", ")));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap(id: &str, maturity: Maturity, risk_assessed: bool) -> Capability {
        Capability {
            id: id.into(),
            model_id: format!("model:{id}"),
            description: "d".into(),
            maturity,
            risk_assessed,
        }
    }

    #[test]
    fn register_and_query() {
        let mut reg = CapabilityRegistry::new();
        reg.register(ArchivalFunction::Access, cap("bm25-search", Maturity::Assisted, true))
            .unwrap();
        reg.register(ArchivalFunction::Access, cap("record-linking", Maturity::Experimental, false))
            .unwrap();
        assert_eq!(reg.for_function(ArchivalFunction::Access).len(), 2);
        assert_eq!(reg.len(), 2);
        assert!(reg.for_function(ArchivalFunction::Appraisal).is_empty());
    }

    #[test]
    fn operational_requires_risk_assessment() {
        let mut reg = CapabilityRegistry::new();
        let err = reg.register(
            ArchivalFunction::Retention,
            cap("auto-dispose", Maturity::Operational, false),
        );
        assert!(err.is_err());
        reg.register(
            ArchivalFunction::Retention,
            cap("auto-dispose", Maturity::Operational, true),
        )
        .unwrap();
    }

    #[test]
    fn duplicate_ids_rejected_per_function() {
        let mut reg = CapabilityRegistry::new();
        reg.register(ArchivalFunction::Access, cap("x", Maturity::Assisted, false)).unwrap();
        assert!(reg
            .register(ArchivalFunction::Access, cap("x", Maturity::Assisted, false))
            .is_err());
        // Same id under a different function is allowed (different context).
        reg.register(ArchivalFunction::Description, cap("x", Maturity::Assisted, false))
            .unwrap();
    }

    #[test]
    fn uncovered_lists_gaps_in_lifecycle_order() {
        let mut reg = CapabilityRegistry::new();
        assert_eq!(reg.uncovered().len(), 6);
        reg.register(ArchivalFunction::Access, cap("s", Maturity::Assisted, false)).unwrap();
        reg.register(ArchivalFunction::Appraisal, cap("a", Maturity::Assisted, false)).unwrap();
        let gaps = reg.uncovered();
        assert_eq!(gaps.len(), 4);
        assert_eq!(gaps[0], ArchivalFunction::Acquisition);
        assert!(!gaps.contains(&ArchivalFunction::Access));
    }

    #[test]
    fn coverage_report_mentions_gaps_and_capabilities() {
        let mut reg = CapabilityRegistry::new();
        reg.register(ArchivalFunction::Access, cap("bm25-search", Maturity::Assisted, false))
            .unwrap();
        let report = reg.coverage_report();
        assert!(report.contains("bm25-search"));
        assert!(report.contains("Appraisal: — (gap)"));
    }
}
