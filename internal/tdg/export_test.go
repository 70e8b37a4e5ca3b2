package tdg

// SortUncached runs the topological sort without reading or filling the
// cache, for the allocation ceiling and the sort benchmark.
func (g *Graph) SortUncached() ([]int32, error) { return g.topoSortUncached() }

// FieldsBuilt reports whether the index's field table has been built.
func (ix *Index) FieldsBuilt() bool { return ix.fields != nil }
