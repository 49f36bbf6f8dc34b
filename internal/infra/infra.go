// Package infra defines the vocabulary shared by gopilot's simulated
// infrastructures: resource allocations, payloads, and site identities.
//
// The paper's central challenge (Section III/IV) is resource management
// across *heterogeneous* infrastructure — HPC batch systems, HTC pools,
// IaaS clouds, YARN-style big-data clusters and serverless platforms. Each
// lives in a subpackage (hpc, htc, cloud, serverless, yarn) as a faithful
// behavioural simulator: queue waits, matchmaking delays, boot latencies,
// container negotiation and cold starts are all modeled in virtual time.
// The SAGA adaptor layer (package saga) gives them one face; the pilot
// layer (package core) builds late binding on top.
package infra

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// ErrBackendClosed is the shared sentinel wrapped by every simulated
// backend's "closed" error (hpc.ErrClusterClosed, htc.ErrPoolClosed,
// cloud.ErrClosed, yarn.ErrClosed, serverless.ErrClosed). Callers that
// dispatch across heterogeneous backends test errors.Is(err,
// infra.ErrBackendClosed) instead of enumerating per-backend sentinels.
var ErrBackendClosed = errors.New("infra: backend closed")

// Outcome classifies how a payload run ended, the unified terminal
// taxonomy shared by the backends and the saga adaptor layer.
type Outcome int

// Payload outcomes.
const (
	// OutcomeCompleted: the payload returned nil with a live context.
	OutcomeCompleted Outcome = iota
	// OutcomeCanceled: the context was canceled (walltime, eviction,
	// explicit cancel) — cancellation wins over any payload error.
	OutcomeCanceled
	// OutcomeFailed: the payload returned an error on its own.
	OutcomeFailed
)

// ClassifyOutcome maps a payload run's (context error, payload error)
// pair onto the unified outcome: a canceled context wins, then a payload
// error, else completion. Every adaptor finalizes jobs through this one
// rule, so no backend can drift its completion semantics independently.
func ClassifyOutcome(ctxErr, payloadErr error) Outcome {
	switch {
	case ctxErr != nil:
		return OutcomeCanceled
	case payloadErr != nil:
		return OutcomeFailed
	default:
		return OutcomeCompleted
	}
}

// Site identifies a physical location of compute or storage. Data affinity
// in Pilot-Data is expressed in terms of sites: a data unit stored at site
// "clusterA" is cheap to read from pilots at "clusterA" and costs a modeled
// WAN transfer elsewhere.
type Site string

// Allocation describes the concrete resources granted to a job or pilot:
// which site, how many cores, and on which (synthetic) nodes.
type Allocation struct {
	// ID uniquely identifies the allocation within its backend.
	ID string
	// Site is the location of the granted resources.
	Site Site
	// Cores is the total number of cores granted.
	Cores int
	// Nodes lists the node names backing the allocation.
	Nodes []string
	// Granted is the modeled time the resources became available.
	Granted time.Time
}

// String implements fmt.Stringer.
func (a Allocation) String() string {
	return fmt.Sprintf("alloc %s@%s cores=%d nodes=%d", a.ID, a.Site, a.Cores, len(a.Nodes))
}

// Payload is the unit of executable work handed to an infrastructure: for a
// pilot it is the pilot agent, for a directly submitted job it is the
// application task. The context is canceled on walltime expiry, eviction or
// explicit cancellation; payloads must honor it.
type Payload func(ctx context.Context, alloc Allocation) error

// NodeNames builds count synthetic node names with the given prefix
// ("prefix-0001", ...). All backends use it so that allocations are
// recognizable in logs and tests.
func NodeNames(prefix string, count int) []string {
	names := make([]string, count)
	for i := range names {
		names[i] = fmt.Sprintf("%s-%04d", prefix, i)
	}
	return names
}
