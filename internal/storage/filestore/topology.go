package filestore

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

// Topology is the durable shard-layout manifest for a resharded pool
// root. A pool directory without a TOPOLOGY file is in the legacy
// layout: epoch 0, shards directly under root as shard-NNN, shard count
// implied by the pool options. A committed TOPOLOGY (epoch >= 1) is
// authoritative: shards live under root/epoch-NNNNNN/shard-NNN and the
// manifest's shard count overrides whatever the caller asked for.
//
// The commit protocol mirrors the store's own persist barrier
// (write-new -> fsync -> atomic rename -> fsync dir): Reshard builds
// the replacement shard set under epoch-NNNNNN, persists it, then
// atomically replaces TOPOLOGY. The TOPOLOGY rename is the single
// commit point — a crash on either side of it recovers cleanly,
// because until the manifest lands the old epoch's stores hold every
// acknowledged write (Reshard dual-writes migrated stripes) and the
// uncommitted epoch directory is debris CleanStale removes, while
// after it lands the new epoch's stores hold them all.
type Topology struct {
	Epoch  uint64
	Shards int
}

// ErrTopologyCorrupt reports a TOPOLOGY manifest that exists but does
// not parse or fails its checksum. It is never silently ignored: a
// corrupt manifest means the commit protocol was violated (partial
// writes are impossible — the file is written whole and renamed into
// place), so recovery must stop and surface it.
var ErrTopologyCorrupt = errors.New("filestore: topology manifest corrupt")

const topologyFile = "TOPOLOGY"

// topologyBody renders the checksummed portion of the manifest line.
func topologyBody(t Topology) string {
	return fmt.Sprintf("psoram-topology v1 epoch=%d shards=%d", t.Epoch, t.Shards)
}

// ReadTopology loads root's TOPOLOGY manifest. A missing file returns
// (nil, nil): the root is in the legacy (never-resharded) layout.
func ReadTopology(root string) (*Topology, error) {
	raw, err := os.ReadFile(filepath.Join(root, topologyFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	line := strings.TrimSuffix(string(raw), "\n")
	i := strings.LastIndex(line, " crc=")
	if i < 0 {
		return nil, fmt.Errorf("%w: missing checksum", ErrTopologyCorrupt)
	}
	body, sumHex := line[:i], line[i+len(" crc="):]
	var sum uint32
	if _, err := fmt.Sscanf(sumHex, "%08x", &sum); err != nil {
		return nil, fmt.Errorf("%w: bad checksum field %q", ErrTopologyCorrupt, sumHex)
	}
	if crc32.Checksum([]byte(body), castagnoli) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrTopologyCorrupt)
	}
	var t Topology
	if _, err := fmt.Sscanf(body, "psoram-topology v1 epoch=%d shards=%d", &t.Epoch, &t.Shards); err != nil {
		return nil, fmt.Errorf("%w: unparseable body %q", ErrTopologyCorrupt, body)
	}
	if t.Epoch == 0 || t.Shards <= 0 {
		return nil, fmt.Errorf("%w: invalid epoch=%d shards=%d", ErrTopologyCorrupt, t.Epoch, t.Shards)
	}
	return &t, nil
}

// CommitTopology atomically publishes a new topology. The epoch
// directory must already hold the fully persisted new shard stores; it
// is fsynced (so its entries are durable) and then the TOPOLOGY
// manifest is replaced via write-tmp -> fsync -> rename -> fsync(root).
// The manifest rename is the commit point.
func CommitTopology(root string, t Topology) error {
	if t.Epoch == 0 {
		return errors.New("filestore: cannot commit epoch 0 (legacy layout is implicit)")
	}
	final := epochDir(root, t.Epoch)
	if _, err := os.Stat(final); err != nil {
		return fmt.Errorf("filestore: epoch %d dir missing at commit: %w", t.Epoch, err)
	}
	if err := syncDir(final); err != nil {
		return err
	}
	if err := syncDir(root); err != nil {
		return err
	}
	line := topologyBody(t)
	line = fmt.Sprintf("%s crc=%08x\n", line, crc32.Checksum([]byte(line), castagnoli))
	tmp := filepath.Join(root, topologyFile+".tmp")
	if err := writeFileSync(tmp, []byte(line)); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(root, topologyFile)); err != nil {
		return err
	}
	return syncDir(root)
}

func epochDir(root string, epoch uint64) string {
	return filepath.Join(root, fmt.Sprintf("epoch-%06d", epoch))
}

// ShardDir is shard s's store directory under the given epoch: the
// legacy flat layout for epoch 0, the epoch directory otherwise.
func ShardDir(root string, epoch uint64, s int) string {
	if epoch == 0 {
		return filepath.Join(root, fmt.Sprintf("shard-%03d", s))
	}
	return filepath.Join(epochDir(root, epoch), fmt.Sprintf("shard-%03d", s))
}

// RemoveEpoch deletes epoch's shard stores after a committed reshard
// has retired them. For epoch 0 that is the legacy flat shard-NNN
// directories under root.
func RemoveEpoch(root string, epoch uint64) error {
	if epoch != 0 {
		return os.RemoveAll(epochDir(root, epoch))
	}
	ents, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			if err := os.RemoveAll(filepath.Join(root, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// CleanStale removes reshard debris left by a crash: epoch directories
// other than the committed one (an epoch directory without its
// manifest is by definition an uncommitted, half-migrated reshard) and
// — once a topology is committed — the legacy flat shard directories.
// topo is the manifest ReadTopology returned (nil for the legacy
// layout). Safe to call on every open; it never touches the committed
// epoch's stores.
func CleanStale(root string, topo *Topology) error {
	ents, err := os.ReadDir(root)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	committed := ""
	if topo != nil {
		committed = fmt.Sprintf("epoch-%06d", topo.Epoch)
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		stale := (strings.HasPrefix(name, "epoch-") && name != committed) ||
			(topo != nil && strings.HasPrefix(name, "shard-"))
		if stale {
			if err := os.RemoveAll(filepath.Join(root, name)); err != nil {
				return err
			}
		}
	}
	return nil
}
