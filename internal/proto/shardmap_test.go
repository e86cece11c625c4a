package proto

import (
	"reflect"
	"testing"
)

func TestShardMapRoundTrip(t *testing.T) {
	in := &ShardMapReply{
		Status: OK,
		Map: ShardMap{
			Version: 3,
			Servers: []string{"shard0", "shard1", "shard2"},
			Assignments: []ShardAssignment{
				{Prefix: "/u00", Shard: 0},
				{Prefix: "/u01", Shard: 1},
				{Prefix: "/u02", Shard: 2},
			},
		},
	}
	if out := roundTrip(t, in); !reflect.DeepEqual(out, in) {
		t.Errorf("round trip:\n  in  %+v\n  out %+v", in, out)
	}

	// Error replies carry no body.
	bad := &ShardMapReply{Status: ErrIO, Map: in.Map}
	out2 := roundTrip(t, bad)
	if out2.Status != ErrIO || !out2.Map.IsZero() {
		t.Errorf("error reply %+v", out2)
	}

	// An empty map (standalone server) round-trips to zero.
	empty := &ShardMapReply{Status: OK}
	out3 := roundTrip(t, empty)
	if out3.Status != OK || !out3.Map.IsZero() {
		t.Errorf("empty reply %+v", out3)
	}
}

func TestShardMapValidate(t *testing.T) {
	ok := ShardMap{Servers: []string{"a", "b"}, Assignments: []ShardAssignment{
		{Prefix: "/x", Shard: 0}, {Prefix: "/y", Shard: 1},
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid map rejected: %v", err)
	}
	bad := []ShardMap{
		{Servers: []string{"a"}, Assignments: []ShardAssignment{{Prefix: "x", Shard: 0}}},        // no leading slash
		{Servers: []string{"a"}, Assignments: []ShardAssignment{{Prefix: "/", Shard: 0}}},        // empty component
		{Servers: []string{"a"}, Assignments: []ShardAssignment{{Prefix: "/x/y", Shard: 0}}},     // nested prefix
		{Servers: []string{"a"}, Assignments: []ShardAssignment{{Prefix: "/x", Shard: 1}}},       // shard out of range
		{Servers: []string{"a"}, Assignments: []ShardAssignment{{Prefix: "/x"}, {Prefix: "/x"}}}, // duplicate
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad map %d accepted", i)
		}
	}
}
