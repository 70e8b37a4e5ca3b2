// Package shard is an alias shim: the region-sharded solver lives in
// internal/placement (ShardedGreedy, ShardStats). It exists only so the
// parent commit's benchmark/ keeps compiling, and is deleted with
// ROADMAP 2(ii).
package shard

import "github.com/hermes-net/hermes/internal/placement"

// ShardedGreedy is placement.ShardedGreedy.
type ShardedGreedy = placement.ShardedGreedy

// Stats is placement.ShardStats.
type Stats = placement.ShardStats
