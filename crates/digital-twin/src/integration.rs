//! Figure 2: integrating diverse databases into BIM.
//!
//! The paper's figure shows heterogeneous sources — vendor catalogs, cost
//! tables, permits, sensor registries, building-performance results —
//! flowing into the BIM. This module implements that merge: each source
//! record is matched to a BIM element, its fields are folded into the
//! element's attribute database, a full [`MappingRecord`] is kept for every
//! decision (including failures), and attribute conflicts are surfaced
//! rather than silently overwritten. Experiment F2 measures throughput and
//! consistency over this path.

use crate::bim::{BimModel, ElementId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The kinds of source databases in Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SourceKind {
    /// Manufacturer/vendor component catalog.
    VendorCatalog,
    /// Building-permit registry.
    PermitRegistry,
    /// Material/labor cost table.
    CostTable,
    /// IoT sensor registry.
    SensorRegistry,
    /// Building-performance-simulation results.
    BpsResults,
    /// Maintenance history export.
    MaintenanceHistory,
}

impl SourceKind {
    /// All kinds.
    pub const ALL: [SourceKind; 6] = [
        SourceKind::VendorCatalog,
        SourceKind::PermitRegistry,
        SourceKind::CostTable,
        SourceKind::SensorRegistry,
        SourceKind::BpsResults,
        SourceKind::MaintenanceHistory,
    ];
}

/// One record of a source database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceRecord {
    /// Source-local key.
    pub key: String,
    /// The element the record describes (by BIM id), when the source knows
    /// it; some sources only carry free-form references.
    pub element_ref: Option<String>,
    /// Field data to fold into the element.
    pub fields: BTreeMap<String, String>,
}

/// A source database to integrate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceDatabase {
    /// Source name (e.g. "hvac-vendor-catalog").
    pub name: String,
    /// Category.
    pub kind: SourceKind,
    /// Records.
    pub records: Vec<SourceRecord>,
}

/// Why a record failed to integrate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchFailure {
    /// The record carries no element reference.
    NoReference,
    /// The referenced element does not exist in the model.
    UnknownElement(String),
}

/// The decision made for one source record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingRecord {
    /// Source database.
    pub source: String,
    /// Source record key.
    pub record_key: String,
    /// Outcome: matched element or failure.
    pub outcome: Result<ElementId, MatchFailure>,
    /// Attribute conflicts found: (key, existing value, incoming value).
    pub conflicts: Vec<(String, String, String)>,
}

/// Aggregate result of integrating one source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntegrationReport {
    /// Source name.
    pub source: String,
    /// Records successfully folded into elements.
    pub integrated: usize,
    /// Records with no usable reference.
    pub unmatched: usize,
    /// Attribute conflicts encountered (existing value kept).
    pub conflicts: usize,
    /// One mapping record per source record, in order.
    pub mappings: Vec<MappingRecord>,
}

/// Fold `source` into `model`. Existing attribute values win on conflict
/// (the BIM is authoritative; conflicts are reported for human review —
/// the archival stance on contradictory evidence). The merge span and
/// record/conflict counters are recorded into `obs`.
pub fn integrate(
    model: &mut BimModel,
    source: &SourceDatabase,
    obs: &itrust_obs::ObsCtx,
) -> IntegrationReport {
    let _span = itrust_obs::span!(obs, "twin.integration.integrate");
    let mut report = IntegrationReport {
        source: source.name.clone(),
        integrated: 0,
        unmatched: 0,
        conflicts: 0,
        mappings: Vec::with_capacity(source.records.len()),
    };
    for record in &source.records {
        let outcome = match &record.element_ref {
            None => Err(MatchFailure::NoReference),
            Some(r) => {
                let id = ElementId::new(r.clone());
                if model.element(&id).is_some() {
                    Ok(id)
                } else {
                    Err(MatchFailure::UnknownElement(r.clone()))
                }
            }
        };
        let mut conflicts = Vec::new();
        match &outcome {
            Ok(id) => match model.element_mut(id) {
                Some(element) => {
                    for (k, v) in &record.fields {
                        match element.attributes.get(k) {
                            Some(existing) if existing != v => {
                                conflicts.push((k.clone(), existing.clone(), v.clone()));
                            }
                            Some(_) => {}
                            None => {
                                element.attributes.insert(k.clone(), v.clone());
                            }
                        }
                    }
                    element
                        .external_refs
                        .push((source.name.clone(), record.key.clone()));
                    report.integrated += 1;
                }
                // `outcome` is only Ok when the element resolved above; a
                // miss here means the model changed under us — count it as
                // unmatched rather than aborting the whole integration.
                None => report.unmatched += 1,
            },
            Err(_) => report.unmatched += 1,
        }
        report.conflicts += conflicts.len();
        report.mappings.push(MappingRecord {
            source: source.name.clone(),
            record_key: record.key.clone(),
            outcome,
            conflicts,
        });
    }
    itrust_obs::counter_add!(obs, "twin.integration.records_integrated", report.integrated as u64);
    itrust_obs::counter_add!(obs, "twin.integration.conflicts", report.conflicts as u64);
    report
}

/// Integrate several sources in order, recording telemetry into `obs`;
/// returns one report per source.
pub fn integrate_all(
    model: &mut BimModel,
    sources: &[SourceDatabase],
    obs: &itrust_obs::ObsCtx,
) -> Vec<IntegrationReport> {
    sources.iter().map(|s| integrate(model, s, obs)).collect()
}

/// Generate a synthetic source database over a model: `coverage` of the
/// elements get one record each (field names depend on the source kind),
/// plus `orphans` records referencing nonexistent elements and `blanks`
/// with no reference at all. Deterministic in `seed`.
pub fn synthetic_source(
    model: &BimModel,
    kind: SourceKind,
    coverage: f64,
    orphans: usize,
    blanks: usize,
    seed: u64,
) -> SourceDatabase {
    assert!((0.0..=1.0).contains(&coverage));
    let mut rng = StdRng::seed_from_u64(seed);
    let name = format!("{kind:?}").to_lowercase();
    let mut records = Vec::new();
    for (i, id) in model.element_ids().into_iter().enumerate() {
        if rng.gen::<f64>() >= coverage {
            continue;
        }
        let mut fields = BTreeMap::new();
        match kind {
            SourceKind::VendorCatalog => {
                fields.insert("vendor".into(), format!("vendor-{}", i % 7));
                fields.insert("model_no".into(), format!("M-{:04}", rng.gen_range(0..10_000)));
            }
            SourceKind::PermitRegistry => {
                fields.insert("permit_no".into(), format!("P-{:05}", i));
                fields.insert("approved".into(), "true".into());
            }
            SourceKind::CostTable => {
                fields.insert("unit_cost".into(), format!("{}", rng.gen_range(50..5_000)));
                fields.insert("currency".into(), "CAD".into());
            }
            SourceKind::SensorRegistry => {
                fields.insert("sensor_count".into(), format!("{}", rng.gen_range(0..4)));
            }
            SourceKind::BpsResults => {
                fields.insert(
                    "annual_kwh".into(),
                    format!("{}", rng.gen_range(100..100_000)),
                );
            }
            SourceKind::MaintenanceHistory => {
                fields.insert("last_service".into(), format!("20{:02}-01-01", i % 23));
            }
        }
        records.push(SourceRecord {
            key: format!("{name}-{i}"),
            element_ref: Some(id.0),
            fields,
        });
    }
    for o in 0..orphans {
        records.push(SourceRecord {
            key: format!("{name}-orphan-{o}"),
            element_ref: Some(format!("B999/S9/E{o}")),
            fields: BTreeMap::new(),
        });
    }
    for b in 0..blanks {
        records.push(SourceRecord {
            key: format!("{name}-blank-{b}"),
            element_ref: None,
            fields: BTreeMap::new(),
        });
    }
    SourceDatabase { name, kind, records }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itrust_obs::ObsCtx;

    fn model() -> BimModel {
        BimModel::synthetic_campus("c", 2, 2, 6)
    }

    #[test]
    fn full_coverage_integrates_every_element() {
        let mut m = model();
        let src = synthetic_source(&m, SourceKind::VendorCatalog, 1.0, 0, 0, 1);
        let report = integrate(&mut m, &src, &ObsCtx::null());
        assert_eq!(report.integrated, m.element_count());
        assert_eq!(report.unmatched, 0);
        // Every element gained vendor fields and a back-reference.
        for id in m.element_ids() {
            let e = m.element(&id).unwrap();
            assert!(e.attributes.contains_key("vendor"));
            assert_eq!(e.external_refs.len(), 1);
        }
    }

    #[test]
    fn orphans_and_blanks_reported_not_dropped_silently() {
        let mut m = model();
        let src = synthetic_source(&m, SourceKind::CostTable, 0.5, 3, 2, 2);
        let report = integrate(&mut m, &src, &ObsCtx::null());
        assert_eq!(report.unmatched, 5);
        assert_eq!(report.mappings.len(), src.records.len());
        let unknown = report
            .mappings
            .iter()
            .filter(|mr| matches!(mr.outcome, Err(MatchFailure::UnknownElement(_))))
            .count();
        let blank = report
            .mappings
            .iter()
            .filter(|mr| matches!(mr.outcome, Err(MatchFailure::NoReference)))
            .count();
        assert_eq!(unknown, 3);
        assert_eq!(blank, 2);
    }

    #[test]
    fn conflicts_keep_existing_and_are_reported() {
        let mut m = model();
        // "material" already exists on every element from generation.
        let mut fields = BTreeMap::new();
        fields.insert("material".into(), "unobtainium".into());
        let src = SourceDatabase {
            name: "conflicting".into(),
            kind: SourceKind::VendorCatalog,
            records: vec![SourceRecord {
                key: "r1".into(),
                element_ref: Some("B0/S0/E0".into()),
                fields,
            }],
        };
        let before = m.element(&ElementId::new("B0/S0/E0")).unwrap().attributes["material"].clone();
        let report = integrate(&mut m, &src, &ObsCtx::null());
        assert_eq!(report.conflicts, 1);
        assert_eq!(report.mappings[0].conflicts.len(), 1);
        let after = &m.element(&ElementId::new("B0/S0/E0")).unwrap().attributes["material"];
        assert_eq!(&before, after, "BIM value is authoritative");
    }

    #[test]
    fn equal_values_are_not_conflicts() {
        let mut m = model();
        let existing = m.element(&ElementId::new("B0/S0/E0")).unwrap().attributes["material"].clone();
        let mut fields = BTreeMap::new();
        fields.insert("material".into(), existing);
        let src = SourceDatabase {
            name: "agreeing".into(),
            kind: SourceKind::VendorCatalog,
            records: vec![SourceRecord {
                key: "r1".into(),
                element_ref: Some("B0/S0/E0".into()),
                fields,
            }],
        };
        let report = integrate(&mut m, &src, &ObsCtx::null());
        assert_eq!(report.conflicts, 0);
        assert_eq!(report.integrated, 1);
    }

    #[test]
    fn integrate_all_six_sources() {
        let mut m = model();
        let sources: Vec<SourceDatabase> = SourceKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &k)| synthetic_source(&m, k, 0.8, 1, 1, 10 + i as u64))
            .collect();
        let reports = integrate_all(&mut m, &sources, &ObsCtx::null());
        assert_eq!(reports.len(), 6);
        let total: usize = reports.iter().map(|r| r.integrated).sum();
        assert!(total > 0);
        // Elements accumulate refs from multiple sources.
        let max_refs = m
            .element_ids()
            .iter()
            .map(|id| m.element(id).unwrap().external_refs.len())
            .max()
            .unwrap();
        assert!(max_refs >= 3, "max refs {max_refs}");
    }

    #[test]
    fn synthetic_source_is_deterministic() {
        let m = model();
        let a = synthetic_source(&m, SourceKind::BpsResults, 0.7, 2, 2, 42);
        let b = synthetic_source(&m, SourceKind::BpsResults, 0.7, 2, 2, 42);
        assert_eq!(a, b);
    }
}
