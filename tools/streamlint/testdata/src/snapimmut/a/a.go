// Package a exercises the snapimmut analyzer with miniature Matrix, RowView,
// Paged, EmbStore and QuerySnapshot types mirroring the real serving path.
package a

// Matrix is a dense row-major matrix, like tensor.Matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }
func (m *Matrix) At(r, c int) float64     { return m.Data[r*m.Cols+c] }
func (m *Matrix) Row(r int) []float64     { return m.Data[r*m.Cols : (r+1)*m.Cols] }
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{Rows: m.Rows, Cols: m.Cols, Data: make([]float64, len(m.Data))}
	copy(c.Data, m.Data)
	return c
}

// EmbStore owns the live matrix and publishes copy-on-write references.
type EmbStore struct {
	emb    *Matrix
	shared bool
}

func (s *EmbStore) Publish() *Matrix {
	s.shared = true
	return s.emb
}

// RowView is a frozen view of paged rows, like tensor.RowView: Row aliases
// a page the store may share with other views.
type RowView struct {
	cols  int
	pages [][]float64
}

func (v *RowView) Row(i int) []float64 {
	off := (i % 64) * v.cols
	return v.pages[i/64][off : off+v.cols]
}

// Paged is the store's writable side, like tensor.Paged.
type Paged struct {
	RowView
}

func (p *Paged) SetRow(i int, src []float64) { copy(p.Row(i), src) }

func (p *Paged) Freeze() *RowView {
	v := p.RowView
	return &v
}

// PagedStore publishes frozen row views, like the real dgnn.EmbStore.
type PagedStore struct {
	rows *Paged
}

func (s *PagedStore) Publish() *RowView { return s.rows.Freeze() }

// QuerySnapshot captures a published matrix and view, like the real serving
// snapshot.
type QuerySnapshot struct {
	emb  *Matrix
	view *RowView
}

func (s *QuerySnapshot) View() *RowView { return s.view }

// scale mutates its parameter through an index store; callers handing it a
// published matrix are flagged via the interprocedural summary.
func scale(m *Matrix, f float64) {
	for i := range m.Data {
		m.Data[i] *= f
	}
}

// fill mutates its second parameter, not its first.
func fill(src *Matrix, dst *Matrix) {
	copy(dst.Data, src.Data)
}

// Mutator is dispatched through an interface; the mutating implementation
// taints every dispatch site (CHA over-approximation).
type Mutator interface {
	Apply(m *Matrix)
}

type zeroer struct{}

func (zeroer) Apply(m *Matrix) {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

func MutateDirect(s *EmbStore) {
	m := s.Publish()
	m.Set(0, 0, 1) // want `\(\*snapimmut/a\.Matrix\)\.Set mutates a value derived from Publish\(\)`
}

func MutateRowAlias(s *EmbStore) {
	m := s.Publish()
	row := m.Row(0)
	row[0] = 1 // want `store into a value derived from Publish\(\)`
}

func MutateDataIndex(s *EmbStore) {
	m := s.Publish()
	m.Data[3] = 1 // want `store into a value derived from Publish\(\)`
}

func MutateCopy(s *EmbStore, src []float64) {
	m := s.Publish()
	copy(m.Row(0), src) // want `copy\(\) into a value derived from Publish\(\)`
}

func MutateIndirect(s *EmbStore) {
	m := s.Publish()
	scale(m, 2) // want `argument 1 of snapimmut/a\.scale is mutated by the callee; it is a value derived from Publish\(\)`
}

func MutateSecondArg(s *EmbStore, src *Matrix) {
	m := s.Publish()
	fill(src, m) // want `argument 2 of snapimmut/a\.fill is mutated by the callee; it is a value derived from Publish\(\)`
}

func MutateViaInterface(s *EmbStore, mut Mutator) {
	m := s.Publish()
	mut.Apply(m) // want `mutated by the callee; it is a value derived from Publish\(\)`
}

func MutateSnapshotField(snap *QuerySnapshot) {
	snap.emb.Set(0, 0, 1) // want `\(\*snapimmut/a\.Matrix\)\.Set mutates a value captured in a QuerySnapshot`
}

func MutateSnapshotVar(snap *QuerySnapshot) {
	m := snap.emb
	m.Data[0] = 1 // want `store into a value captured in a QuerySnapshot`
}

func MutateViewRow(s *PagedStore) {
	v := s.Publish()
	row := v.Row(0)
	row[0] = 1 // want `store into a value derived from Publish\(\)`
}

func MutateViewCopy(s *PagedStore, src []float64) {
	copy(s.Publish().Row(1), src) // want `copy\(\) into a value derived from Publish\(\)`
}

func MutateFrozenRow(p *Paged) {
	p.Freeze().Row(0)[0] = 1 // want `store into a value derived from Freeze\(\)`
}

func MutateSnapshotViewField(snap *QuerySnapshot) {
	snap.view.Row(0)[0] = 1 // want `store into a value captured in a QuerySnapshot`
}

func MutateSnapshotViewMethod(snap *QuerySnapshot) {
	v := snap.View()
	row := v.Row(2)
	row[1] = 1 // want `store into a value captured in a QuerySnapshot`
}

// WriteThroughStore is the store's own write path: it clones the page first,
// so it is not a published value.
func WriteThroughStore(s *PagedStore, src []float64) {
	s.rows.SetRow(0, src)
}

// ReadView consumes a published view without mutating it.
func ReadView(snap *QuerySnapshot) float64 {
	sum := 0.0
	for _, v := range snap.View().Row(0) {
		sum += v
	}
	return sum
}

// CloneThenMutate is the sanctioned pattern: Clone breaks the taint.
func CloneThenMutate(s *EmbStore) *Matrix {
	m := s.Publish().Clone()
	m.Set(0, 0, 1)
	return m
}

// ReassignClears rebinds the variable to a fresh matrix; mutating the new
// value is fine.
func ReassignClears(s *EmbStore) {
	m := s.Publish()
	m = &Matrix{Rows: 1, Cols: 1, Data: make([]float64, 1)}
	m.Set(0, 0, 1)
}

// ReadOnly consumes published state without mutating it.
func ReadOnly(snap *QuerySnapshot) float64 {
	sum := 0.0
	for _, v := range snap.emb.Row(0) {
		sum += v
	}
	return sum + snap.emb.At(0, 0)
}

// ReadThroughHelper passes published state to a non-mutating function.
func ReadThroughHelper(s *EmbStore) float64 {
	m := s.Publish()
	return total(m)
}

func total(m *Matrix) float64 {
	sum := 0.0
	for _, v := range m.Data {
		sum += v
	}
	return sum
}

// ExemptedMutation is waived by the sanctioned clone-once COW escape hatch.
func ExemptedMutation(s *EmbStore) {
	m := s.Publish()
	//streamlint:cow-exempt fixture: sanctioned clone-once COW seeding before the snapshot escapes
	m.Set(0, 0, 1)
}
