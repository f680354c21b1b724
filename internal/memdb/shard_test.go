package memdb

import (
	"reflect"
	"testing"
)

func TestShardMappingRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		counts := make(map[int]int)
		for g := 0; g < 100; g++ {
			k := ShardOf(g, n)
			if k < 0 || k >= n {
				t.Fatalf("ShardOf(%d,%d) = %d out of range", g, n, k)
			}
			l := LocalIndex(g, n)
			if back := GlobalIndex(l, k, n); back != g {
				t.Fatalf("n=%d: GlobalIndex(LocalIndex(%d)) = %d", n, g, back)
			}
			counts[k]++
		}
		// Striping balances: shard loads differ by at most one.
		min, max := 100, 0
		for k := 0; k < n; k++ {
			if counts[k] < min {
				min = counts[k]
			}
			if counts[k] > max {
				max = counts[k]
			}
		}
		if max-min > 1 {
			t.Fatalf("n=%d: unbalanced stripe: %v", n, counts)
		}
	}
}

func TestShardRecordsSumsToTotal(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5} {
		for total := n; total < 40; total++ {
			sum := 0
			for k := 0; k < n; k++ {
				r := ShardRecords(total, k, n)
				if r <= 0 {
					t.Fatalf("ShardRecords(%d,%d,%d) = %d", total, k, n, r)
				}
				sum += r
			}
			if sum != total {
				t.Fatalf("n=%d total=%d: shard records sum to %d", n, total, sum)
			}
		}
	}
}

func TestShardSchemas(t *testing.T) {
	schema := Schema{Tables: []TableSpec{
		{Name: "Cfg", NumRecords: 16, Fields: []FieldSpec{{Name: "a", Kind: Static}}},
		{Name: "Dyn", Dynamic: true, NumRecords: 25, Groups: 4,
			Fields: []FieldSpec{{Name: "b", Kind: Dynamic}}},
	}}
	shards, err := ShardSchemas(schema, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 4 {
		t.Fatalf("got %d shard schemas", len(shards))
	}
	totals := make([]int, len(schema.Tables))
	for k, sh := range shards {
		if err := sh.Validate(); err != nil {
			t.Fatalf("shard %d schema invalid: %v", k, err)
		}
		for ti, tbl := range sh.Tables {
			if tbl.Name != schema.Tables[ti].Name || tbl.Groups != schema.Tables[ti].Groups ||
				tbl.Dynamic != schema.Tables[ti].Dynamic {
				t.Fatalf("shard %d table %d lost spec fields: %+v", k, ti, tbl)
			}
			totals[ti] += tbl.NumRecords
		}
	}
	for ti, tot := range totals {
		if tot != schema.Tables[ti].NumRecords {
			t.Fatalf("table %d shard records sum to %d, want %d", ti, tot, schema.Tables[ti].NumRecords)
		}
	}
	// Derived schemas must not alias the original's table slice.
	shards[0].Tables[0].NumRecords = 1
	if schema.Tables[0].NumRecords != 16 {
		t.Fatal("ShardSchemas aliased the input schema")
	}
	// One shard is the schema itself: a one-region server is built from it.
	one, err := ShardSchemas(schema, 1)
	if err != nil || len(one) != 1 || !reflect.DeepEqual(one[0], schema) {
		t.Fatalf("ShardSchemas(schema, 1) = %+v (%v), want the schema unchanged", one, err)
	}
	// Too many shards for the smallest table.
	if _, err := ShardSchemas(schema, 17); err == nil {
		t.Fatal("ShardSchemas accepted more shards than records")
	}
}
