// Fixture for the aliasleak analyzer: every escape channel of a
// store-resident design (return, field store, global store, goroutine
// capture, mutating/unprovable/dynamic callees), the clean clone-in/
// clone-out shapes that must stay silent, and the suppression paths.
package serve

import "aliasleak/internal/model"

// Server holds resident designs, immutable once stored.
type Server struct {
	designs map[string]*model.Design
	last    *model.Design
}

var published *model.Design

// Lookup leaks the resident pointer across the clone boundary.
func (s *Server) Lookup(name string) *model.Design {
	d := s.designs[name]
	return d // want "returns an interior pointer"
}

// LookupClone launders correctly.
func (s *Server) LookupClone(name string) *model.Design {
	d := s.designs[name]
	return d.Clone()
}

// FirstCell leaks an interior pointer derived from the resident.
func (s *Server) FirstCell(name string) *model.Cell {
	d := s.designs[name]
	return &d.Cells[0] // want "returns an interior pointer"
}

// Cache parks the resident pointer in a field that outlives the
// request.
func (s *Server) Cache(name string) {
	s.last = s.designs[name] // want "stores a resident design pointer into field"
}

// Publish parks it in a package-level variable.
func (s *Server) Publish(name string) {
	published = s.designs[name] // want "package-level"
}

// Spawn captures the resident pointer in a goroutine.
func (s *Server) Spawn(name string, out chan<- int) {
	d := s.designs[name]
	go func() {
		out <- len(d.Cells) // want "goroutine captures"
	}()
}

// Hand passes the resident pointer to a spawned call.
func (s *Server) Hand(name string, sink func(*model.Design)) {
	d := s.designs[name]
	go sink(d) // want "passes a resident design pointer to a goroutine"
}

// Touch hands the resident design to a callee that mutates it.
func (s *Server) Touch(name string) {
	bump(s.designs[name]) // want "writes .* through parameter"
}

func bump(d *model.Design) { d.Cells[0].X++ }

// Size hands it to a provably read-only callee: fine.
func (s *Server) Size(name string) int {
	d := s.designs[name]
	return d.Count()
}

// Apply hands it through a dynamic call: unprovable.
func (s *Server) Apply(name string, f func(*model.Design)) {
	d := s.designs[name]
	f(d) // want "dynamic call"
}

// All leaks resident pointers through a range + append chain.
func (s *Server) All() []*model.Design {
	var out []*model.Design
	for _, d := range s.designs {
		out = append(out, d)
	}
	return out // want "returns an interior pointer"
}

// Peek is Lookup with its why on record.
func (s *Server) Peek(name string) *model.Design {
	d := s.designs[name]
	//mclegal:aliasleak the fixture proves justified reads of the store stay allowed
	return d
}

// PeekBare suppresses without a justification.
func (s *Server) PeekBare(name string) *model.Design {
	d := s.designs[name]
	//mclegal:aliasleak
	return d // want "missing a justification"
}

// AddClone is the store's own clone-in path: storing into the store
// map is not an escape, and the stored value is a private copy.
func (s *Server) AddClone(name string, d *model.Design) {
	s.designs[name] = d.Clone()
}

// LookupVar is Lookup through a var declaration, which binds a store
// read exactly like := does.
func (s *Server) LookupVar(name string) *model.Design {
	var d = s.designs[name]
	return d // want "returns an interior pointer"
}
