// Wiring helpers: attach the full invariant catalog to a live simulation
// stack (or to compiled artifacts) with two calls.
//
//   SimAuditor auditor;
//   install_audit(auditor, sim, storage, cfg.policy, cfg.policy_cfg);
//   audit_compiled(auditor, compiled, opts.sched);
//   ... run ...
//   auditor.finalize();
//
// The auditor owns the checks; the layers keep raw observer pointers (each
// layer multiplexes observers natively, so audit composes with telemetry),
// so the auditor must outlive the simulation.
#pragma once

#include "check/audit.h"
#include "check/disk_state_check.h"
#include "check/energy_check.h"
#include "check/event_check.h"
#include "check/schedule_check.h"
#include "check/storage_check.h"
#include "compiler/compile.h"
#include "sim/simulator.h"
#include "storage/storage_system.h"

namespace dasched {

/// The runtime checks one `install_audit` call registers.
struct InstalledChecks {
  EventQueueCheck* events = nullptr;
  EnergyConservationCheck* energy = nullptr;
  DiskStateMachineCheck* disk_state = nullptr;
  StorageAccountingCheck* storage = nullptr;
};

/// Registers the four runtime checks and hooks them into the simulator, the
/// storage system, every I/O node and every disk.  `policy`/`policy_cfg`
/// must describe the power policy the disks actually run.
InstalledChecks install_audit(SimAuditor& auditor, Simulator& sim,
                              StorageSystem& storage, PolicyKind policy,
                              const PolicyConfig& policy_cfg);

/// Registers the scheduling-consistency check and validates one compiled
/// program immediately (it is a pure artifact validator).
ScheduleConsistencyCheck& audit_compiled(SimAuditor& auditor,
                                         const Compiled& compiled,
                                         const ScheduleOptions& opts,
                                         bool scheduling_enabled = true);

}  // namespace dasched
