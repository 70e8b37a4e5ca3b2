package equiv

import (
	"github.com/hermes-net/hermes/internal/dataplane"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/tdg"
)

// Diverges replays pkt through the distributed deployment and the
// single-box reference for graph ref, both from cold registers, and
// reports whether the runs disagree (a coordination fault, a pipeline
// construction failure, or differing final write sets).
func Diverges(ref *tdg.Graph, dep *deploy.Deployment, pkt *dataplane.Packet) bool {
	d, err := dataplane.NewDifferential(ref, dep, 1)
	if err == nil {
		_, err = d.Run([]*dataplane.Packet{pkt})
	}
	return isPlanDefect(err)
}
