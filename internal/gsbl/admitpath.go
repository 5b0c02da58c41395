package gsbl

import (
	"fmt"

	"lattice/internal/admit"
	"lattice/internal/obs"
	"lattice/internal/workload"
)

// This file is the overload-protection layer of the ingest path (see
// ingest.go): with an enabled admit.Config installed, the front-door
// queue becomes a weighted fair-share queue with per-user quotas and
// deterministic load shedding. Everything still runs on the virtual
// clock inside engine callbacks, so same-seed runs shed the same
// submissions at the same instants.

// SetAdmit installs the overload-protection layer in front of the
// ingest queue. The ingest model must already be enabled — its cost
// function prices each submission's front-door occupancy, which is the
// currency the fair-share queue and the wait budget meter. A disabled
// config is a no-op. Call before the first submission.
func (s *Service) SetAdmit(cfg admit.Config) error {
	if !cfg.Enabled() {
		return nil
	}
	if !s.ingest.Enabled() {
		return fmt.Errorf("gsbl: admission control requires the ingest model (SetIngest first)")
	}
	ctl, err := admit.NewController(cfg)
	if err != nil {
		return err
	}
	s.admit = ctl
	return nil
}

// Sheds reports how many submissions the admission layer rejected,
// split by reason. Together with completed and failed batches these
// account every submission's single terminal:
// submissions == batches + quota + overload.
func (s *Service) Sheds() (quota, overload int) { return s.shedQuota, s.shedOverload }

// shed accounts one rejected submission: exactly one StageShed journal
// event (the submission's terminal), a per-reason counter, and the
// caller's callback fired with the typed *admit.Rejection so portals
// can answer 429 with Retry-After.
func (s *Service) shed(sub *workload.Submission, origin string, rej *admit.Rejection, onAccepted func(*Batch, error)) {
	var counter string
	switch rej.Reason {
	case admit.ReasonQuota:
		s.shedQuota++
		counter = "lattice_admit_shed_quota_total"
	default:
		s.shedOverload++
		counter = "lattice_admit_shed_overload_total"
	}
	s.obs.Record("", "", obs.StageShed, "ingest",
		fmt.Sprintf("%s: %d replicates for %s via %s; retry after %.0fs",
			rej.Reason, sub.Replicates, sub.UserEmail, origin, rej.RetryAfter.Seconds()))
	s.obs.Counter(counter, "Submissions rejected by the admission layer").Inc()
	if onAccepted != nil {
		onAccepted(nil, rej)
	}
}
