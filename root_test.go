package spritelynfs

// Facade-level tests: the public API a downstream user sees.

import (
	"testing"
)

func TestPublicAPIQuickstart(t *testing.T) {
	pm := DefaultParams()
	world := NewWorld(SNFS, true, pm)
	err := world.Run(func(p *Proc) error {
		if err := world.NS.Mkdir(p, "/data/dir", 0o755); err != nil {
			return err
		}
		f, err := world.NS.Open(p, "/data/dir/file", WriteOnly|Create, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(p, 0, []byte("public api")); err != nil {
			return err
		}
		if err := f.Close(p); err != nil {
			return err
		}
		g, err := world.NS.Open(p, "/data/dir/file", ReadOnly, 0)
		if err != nil {
			return err
		}
		data, err := g.ReadAt(p, 0, 100)
		if err != nil {
			return err
		}
		if string(data) != "public api" {
			t.Errorf("read %q", data)
		}
		return g.Close(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if world.ClientOps().Total() == 0 {
		t.Error("no RPCs counted")
	}
}

func TestPublicAPIMultiClient(t *testing.T) {
	pm := DefaultParams()
	world := NewWorld(SNFS, true, pm)
	_, otherNS := world.AddSNFSClient("other", SNFSClientOptions{})
	err := world.Run(func(p *Proc) error {
		if err := world.NS.WriteFile(p, "/data/x", 10000, 8192); err != nil {
			return err
		}
		n, err := otherNS.ReadFile(p, "/data/x", make([]byte, 8192))
		if err != nil {
			return err
		}
		if n != 10000 {
			t.Errorf("other client read %d bytes", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIExperimentEntryPoints(t *testing.T) {
	pm := DefaultParams()
	pm.Andrew.Dirs = 1
	pm.Andrew.FilesPerDir = 3
	pm.SortSizes = []int{128 * 1024}
	if _, _, err := Table53(pm); err != nil {
		t.Errorf("Table53: %v", err)
	}
	if _, err := RunSort(RFS, 128*1024, true, pm); err != nil {
		t.Errorf("RunSort(RFS): %v", err)
	}
	run, err := RunAndrew(SNFS, true, pm)
	if err != nil {
		t.Errorf("RunAndrew: %v", err)
	}
	if Seconds(run.Result.Total) <= 0 {
		t.Error("no simulated time elapsed")
	}
}
