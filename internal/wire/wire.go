// Package wire implements the seqd client/server protocol: a
// length-prefixed binary framing with a small set of typed messages.
// docs/PROTOCOL.md is the normative specification of everything in this
// package; the conformance test in this directory round-trips every
// documented message type through this codec and fails when the two
// drift.
//
// Framing: every message travels as one frame
//
//	uint32 big-endian  length of (type byte + payload)
//	uint8              message type
//	bytes              payload (message-specific)
//
// Integers inside payloads are varints (signed: zig-zag); strings and
// byte slices are length-prefixed with a uvarint; float64 travels as its
// 8-byte IEEE-754 big-endian bit pattern. Values are tagged with their
// seq.Type byte; records are a uvarint field count followed by the
// values.
//
// The protocol is strictly request/response: the client sends one
// request and reads frames until Ready, which carries the server's
// current MVCC epoch. Version negotiation happens in Hello/HelloAck; see
// Negotiate.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/seq"
)

// Protocol version bounds. A client offers its version in Hello; the
// server answers with min(client, ProtocolVersion) in HelloAck, or
// rejects with CodeVersion when the offer is below MinProtocolVersion.
const (
	ProtocolVersion    = 1
	MinProtocolVersion = 1
)

// DefaultMaxFrame bounds the size of one frame (type byte + payload);
// larger frames are a protocol error. Results are batched into frames of
// RowsPerBatch entries, so well-formed peers stay far below the bound.
const DefaultMaxFrame = 16 << 20

// Type identifies a message. Client-originated types occupy 0x01–0x7f,
// server-originated types 0x81–0xff.
type Type uint8

// Client → server message types.
const (
	THello       Type = 0x01
	TQuery       Type = 0x02
	TExplain     Type = 0x03
	TAnalyze     Type = 0x04
	TMaterialize Type = 0x05
	TAppend      Type = 0x06
	TSetOption   Type = 0x07
	TListSeqs    Type = 0x08
	TDescribe    Type = 0x09
	TListViews   Type = 0x0a
	TDropView    Type = 0x0b
	TClose       Type = 0x0c
	TSubscribe   Type = 0x0d
	TUnsubscribe Type = 0x0e
)

// Server → client message types.
const (
	THelloAck     Type = 0x81
	TReady        Type = 0x82
	TError        Type = 0x83
	TResultHeader Type = 0x84
	TResultRows   Type = 0x85
	TResultDone   Type = 0x86
	TPlanText     Type = 0x87
	TAck          Type = 0x88
	TSeqList      Type = 0x89
	TSeqInfo      Type = 0x8a
	TViewList     Type = 0x8b
	TSubAck       Type = 0x8c
	TDelta        Type = 0x8d
)

// ErrorCode classifies a server-reported failure.
type ErrorCode uint16

// The error codes. CodeConflict deserves a note: the server computes a
// materialization against a pinned snapshot and registers it only if no
// base the view reads was written meanwhile; a lost race is reported as
// CodeConflict and the client simply retries.
const (
	CodeProtocol    ErrorCode = 1  // malformed frame or out-of-order message
	CodeVersion     ErrorCode = 2  // client version below MinProtocolVersion
	CodeParse       ErrorCode = 3  // SEQL parse/bind error
	CodePlan        ErrorCode = 4  // optimizer rejected the query
	CodeExec        ErrorCode = 5  // execution failed
	CodeAppend      ErrorCode = 6  // append rejected (position, schema, kind)
	CodeMaterialize ErrorCode = 7  // materialization rejected
	CodeConflict    ErrorCode = 8  // write raced a snapshot operation; retry
	CodeOption      ErrorCode = 9  // unknown session option or bad value
	CodeNotFound    ErrorCode = 10 // unknown sequence or view
	CodeInternal    ErrorCode = 11 // invariant violation or server bug
)

// String names the code as docs/PROTOCOL.md spells it.
func (c ErrorCode) String() string {
	switch c {
	case CodeProtocol:
		return "protocol"
	case CodeVersion:
		return "version"
	case CodeParse:
		return "parse"
	case CodePlan:
		return "plan"
	case CodeExec:
		return "exec"
	case CodeAppend:
		return "append"
	case CodeMaterialize:
		return "materialize"
	case CodeConflict:
		return "conflict"
	case CodeOption:
		return "option"
	case CodeNotFound:
		return "not-found"
	case CodeInternal:
		return "internal"
	default:
		return fmt.Sprintf("code(%d)", uint16(c))
	}
}

// Message is one protocol message. Concrete message structs implement
// the codec pair; Encode/Decode are the package entry points.
type Message interface {
	Type() Type
	encode(w *writer)
	decode(r *reader)
}

// typeInfo describes one registered message type for the conformance
// machinery.
type typeInfo struct {
	Code Type
	Name string
	New  func() Message
}

var registry = []typeInfo{
	{THello, "Hello", func() Message { return &Hello{} }},
	{TQuery, "Query", func() Message { return &Query{} }},
	{TExplain, "Explain", func() Message { return &Explain{} }},
	{TAnalyze, "Analyze", func() Message { return &Analyze{} }},
	{TMaterialize, "Materialize", func() Message { return &Materialize{} }},
	{TAppend, "Append", func() Message { return &Append{} }},
	{TSetOption, "SetOption", func() Message { return &SetOption{} }},
	{TListSeqs, "ListSeqs", func() Message { return &ListSeqs{} }},
	{TDescribe, "Describe", func() Message { return &Describe{} }},
	{TListViews, "ListViews", func() Message { return &ListViews{} }},
	{TDropView, "DropView", func() Message { return &DropView{} }},
	{TClose, "Close", func() Message { return &Close{} }},
	{THelloAck, "HelloAck", func() Message { return &HelloAck{} }},
	{TReady, "Ready", func() Message { return &Ready{} }},
	{TError, "Error", func() Message { return &Error{} }},
	{TResultHeader, "ResultHeader", func() Message { return &ResultHeader{} }},
	{TResultRows, "ResultRows", func() Message { return &ResultRows{} }},
	{TResultDone, "ResultDone", func() Message { return &ResultDone{} }},
	{TPlanText, "PlanText", func() Message { return &PlanText{} }},
	{TAck, "Ack", func() Message { return &Ack{} }},
	{TSeqList, "SeqList", func() Message { return &SeqList{} }},
	{TSeqInfo, "SeqInfo", func() Message { return &SeqInfo{} }},
	{TViewList, "ViewList", func() Message { return &ViewList{} }},
	{TSubscribe, "Subscribe", func() Message { return &Subscribe{} }},
	{TUnsubscribe, "Unsubscribe", func() Message { return &Unsubscribe{} }},
	{TSubAck, "SubAck", func() Message { return &SubAck{} }},
	{TDelta, "Delta", func() Message { return &Delta{} }},
}

// TypeName returns the registered name of a message type code.
func TypeName(t Type) string {
	for _, ti := range registry {
		if ti.Code == t {
			return ti.Name
		}
	}
	return fmt.Sprintf("Type(0x%02x)", uint8(t))
}

// Types enumerates every registered message type: (code, name, zero
// message). The conformance test round-trips each against
// docs/PROTOCOL.md.
func Types() []struct {
	Code Type
	Name string
	New  func() Message
} {
	out := make([]struct {
		Code Type
		Name string
		New  func() Message
	}, len(registry))
	for i, ti := range registry {
		out[i] = struct {
			Code Type
			Name string
			New  func() Message
		}{ti.Code, ti.Name, ti.New}
	}
	return out
}

// ── message payloads ────────────────────────────────────────────────

// Hello opens a connection: the client's protocol version and name.
type Hello struct {
	Version uint32
	Client  string
}

func (*Hello) Type() Type { return THello }
func (m *Hello) encode(w *writer) {
	w.uvarint(uint64(m.Version))
	w.string(m.Client)
}
func (m *Hello) decode(r *reader) {
	m.Version = uint32(r.uvarint())
	m.Client = r.string()
}

// HelloAck accepts a connection: the negotiated version, the server
// name, and the current MVCC epoch.
type HelloAck struct {
	Version uint32
	Server  string
	Epoch   int64
}

func (*HelloAck) Type() Type { return THelloAck }
func (m *HelloAck) encode(w *writer) {
	w.uvarint(uint64(m.Version))
	w.string(m.Server)
	w.varint(m.Epoch)
}
func (m *HelloAck) decode(r *reader) {
	m.Version = uint32(r.uvarint())
	m.Server = r.string()
	m.Epoch = r.varint()
}

// Ready marks the end of a response turn; the server is ready for the
// next request. Epoch is the server's current MVCC epoch at send time.
type Ready struct {
	Epoch int64
}

func (*Ready) Type() Type         { return TReady }
func (m *Ready) encode(w *writer) { w.varint(m.Epoch) }
func (m *Ready) decode(r *reader) { m.Epoch = r.varint() }

// Error reports a failed request. The turn still ends with Ready.
type Error struct {
	Code    ErrorCode
	Message string
}

func (*Error) Type() Type { return TError }
func (m *Error) encode(w *writer) {
	w.uvarint(uint64(m.Code))
	w.string(m.Message)
}
func (m *Error) decode(r *reader) {
	m.Code = ErrorCode(r.uvarint())
	m.Message = r.string()
}

// Query runs a SEQL query over the inclusive span [Start, End] against
// the session's pinned snapshot. Response: ResultHeader, ResultRows*,
// ResultDone, Ready.
type Query struct {
	SEQL       string
	Start, End int64
}

func (*Query) Type() Type { return TQuery }
func (m *Query) encode(w *writer) {
	w.string(m.SEQL)
	w.varint(m.Start)
	w.varint(m.End)
}
func (m *Query) decode(r *reader) {
	m.SEQL = r.string()
	m.Start = r.varint()
	m.End = r.varint()
}

// Explain returns the optimizer's chosen plan without executing.
// Response: PlanText, Ready.
type Explain struct {
	SEQL       string
	Start, End int64
}

func (*Explain) Type() Type { return TExplain }
func (m *Explain) encode(w *writer) {
	w.string(m.SEQL)
	w.varint(m.Start)
	w.varint(m.End)
}
func (m *Explain) decode(r *reader) {
	m.SEQL = r.string()
	m.Start = r.varint()
	m.End = r.varint()
}

// Analyze executes with per-operator instrumentation (EXPLAIN ANALYZE)
// and returns the rendered metrics, including the server-side counter
// block (see docs/OPERATIONS.md). Response: PlanText, Ready.
type Analyze struct {
	SEQL       string
	Start, End int64
}

func (*Analyze) Type() Type { return TAnalyze }
func (m *Analyze) encode(w *writer) {
	w.string(m.SEQL)
	w.varint(m.Start)
	w.varint(m.End)
}
func (m *Analyze) decode(r *reader) {
	m.SEQL = r.string()
	m.Start = r.varint()
	m.End = r.varint()
}

// Materialize evaluates a query over [Start, End] against the session's
// snapshot and registers the result as a named view shared by all
// sessions. Fails with CodeConflict when a base the view reads was
// written between snapshot and registration. Response: Ack, Ready.
type Materialize struct {
	Name       string
	SEQL       string
	Start, End int64
}

func (*Materialize) Type() Type { return TMaterialize }
func (m *Materialize) encode(w *writer) {
	w.string(m.Name)
	w.string(m.SEQL)
	w.varint(m.Start)
	w.varint(m.End)
}
func (m *Materialize) decode(r *reader) {
	m.Name = r.string()
	m.SEQL = r.string()
	m.Start = r.varint()
	m.End = r.varint()
}

// Append adds one record beyond the end of a sparse base sequence,
// advancing the global epoch. Response: Ack (with the new epoch), Ready.
type Append struct {
	Seq string
	Pos int64
	Rec seq.Record
}

func (*Append) Type() Type { return TAppend }
func (m *Append) encode(w *writer) {
	w.string(m.Seq)
	w.varint(m.Pos)
	w.record(m.Rec)
}
func (m *Append) decode(r *reader) {
	m.Seq = r.string()
	m.Pos = r.varint()
	m.Rec = r.record()
}

// SetOption adjusts one session option (the session's core.Options
// knobs; see docs/PROTOCOL.md for names and value syntax). Response:
// Ack, Ready.
type SetOption struct {
	Name  string
	Value string
}

func (*SetOption) Type() Type { return TSetOption }
func (m *SetOption) encode(w *writer) {
	w.string(m.Name)
	w.string(m.Value)
}
func (m *SetOption) decode(r *reader) {
	m.Name = r.string()
	m.Value = r.string()
}

// ListSeqs asks for the catalog. Response: SeqList, Ready.
type ListSeqs struct{}

func (*ListSeqs) Type() Type     { return TListSeqs }
func (*ListSeqs) encode(*writer) {}
func (*ListSeqs) decode(*reader) {}

// Describe asks for one sequence's schema and meta-data as of the
// session's snapshot. Response: SeqInfo, Ready.
type Describe struct {
	Name string
}

func (*Describe) Type() Type         { return TDescribe }
func (m *Describe) encode(w *writer) { w.string(m.Name) }
func (m *Describe) decode(r *reader) { m.Name = r.string() }

// ListViews asks for the materialized views with counters. Response:
// ViewList, Ready.
type ListViews struct{}

func (*ListViews) Type() Type     { return TListViews }
func (*ListViews) encode(*writer) {}
func (*ListViews) decode(*reader) {}

// DropView removes a materialized view for every session. Response:
// Ack, Ready.
type DropView struct {
	Name string
}

func (*DropView) Type() Type         { return TDropView }
func (m *DropView) encode(w *writer) { w.string(m.Name) }
func (m *DropView) decode(r *reader) { m.Name = r.string() }

// Close announces the client is done; the server closes the connection.
// No response.
type Close struct{}

func (*Close) Type() Type     { return TClose }
func (*Close) encode(*writer) {}
func (*Close) decode(*reader) {}

// ResultHeader opens a query response: the output schema and the MVCC
// epoch the query is pinned at.
type ResultHeader struct {
	Fields []seq.Field
	Epoch  int64
}

func (*ResultHeader) Type() Type { return TResultHeader }
func (m *ResultHeader) encode(w *writer) {
	w.uvarint(uint64(len(m.Fields)))
	for _, f := range m.Fields {
		w.string(f.Name)
		w.byte(byte(f.Type))
	}
	w.varint(m.Epoch)
}
func (m *ResultHeader) decode(r *reader) {
	n := r.count("field", 1<<16)
	if r.err != nil {
		return
	}
	m.Fields = make([]seq.Field, n)
	for i := range m.Fields {
		m.Fields[i].Name = r.string()
		m.Fields[i].Type = seq.Type(r.byte())
	}
	m.Epoch = r.varint()
}

// ResultRows carries a batch of result entries in positional order.
type ResultRows struct {
	Entries []seq.Entry
}

func (*ResultRows) Type() Type { return TResultRows }
func (m *ResultRows) encode(w *writer) {
	w.uvarint(uint64(len(m.Entries)))
	for _, e := range m.Entries {
		w.varint(e.Pos)
		w.record(e.Rec)
	}
}
func (m *ResultRows) decode(r *reader) {
	m.Entries = r.entries(nil, "row")
}

// ResultDone closes a query response with totals: row count, the pinned
// epoch, execution wall time, and the time the request waited for a
// worker slot.
type ResultDone struct {
	Rows      uint64
	Epoch     int64
	ElapsedNs uint64
	QueueNs   uint64
}

func (*ResultDone) Type() Type { return TResultDone }
func (m *ResultDone) encode(w *writer) {
	w.uvarint(m.Rows)
	w.varint(m.Epoch)
	w.uvarint(m.ElapsedNs)
	w.uvarint(m.QueueNs)
}
func (m *ResultDone) decode(r *reader) {
	m.Rows = r.uvarint()
	m.Epoch = r.varint()
	m.ElapsedNs = r.uvarint()
	m.QueueNs = r.uvarint()
}

// PlanText carries a rendered plan (Explain) or instrumented metrics
// tree (Analyze).
type PlanText struct {
	Text string
}

func (*PlanText) Type() Type         { return TPlanText }
func (m *PlanText) encode(w *writer) { w.string(m.Text) }
func (m *PlanText) decode(r *reader) { m.Text = r.string() }

// Ack acknowledges a state-changing request, carrying a human-readable
// note and the epoch after the change.
type Ack struct {
	Text  string
	Epoch int64
}

func (*Ack) Type() Type { return TAck }
func (m *Ack) encode(w *writer) {
	w.string(m.Text)
	w.varint(m.Epoch)
}
func (m *Ack) decode(r *reader) {
	m.Text = r.string()
	m.Epoch = r.varint()
}

// SeqList carries the catalog's sequence names, sorted.
type SeqList struct {
	Names []string
}

func (*SeqList) Type() Type { return TSeqList }
func (m *SeqList) encode(w *writer) {
	w.uvarint(uint64(len(m.Names)))
	for _, n := range m.Names {
		w.string(n)
	}
}
func (m *SeqList) decode(r *reader) {
	n := r.count("name", 1<<20)
	if r.err != nil {
		return
	}
	m.Names = make([]string, n)
	for i := range m.Names {
		m.Names[i] = r.string()
	}
}

// SeqInfo describes one sequence as of the session's snapshot.
type SeqInfo struct {
	Name       string
	Fields     []seq.Field
	Start, End int64
	Density    float64
	Kind       string
}

func (*SeqInfo) Type() Type { return TSeqInfo }
func (m *SeqInfo) encode(w *writer) {
	w.string(m.Name)
	w.uvarint(uint64(len(m.Fields)))
	for _, f := range m.Fields {
		w.string(f.Name)
		w.byte(byte(f.Type))
	}
	w.varint(m.Start)
	w.varint(m.End)
	w.float(m.Density)
	w.string(m.Kind)
}
func (m *SeqInfo) decode(r *reader) {
	m.Name = r.string()
	n := r.count("field", 1<<16)
	if r.err != nil {
		return
	}
	m.Fields = make([]seq.Field, n)
	for i := range m.Fields {
		m.Fields[i].Name = r.string()
		m.Fields[i].Type = seq.Type(r.byte())
	}
	m.Start = r.varint()
	m.End = r.varint()
	m.Density = r.float()
	m.Kind = r.string()
}

// ViewInfo is one materialized view's counters as carried by ViewList.
type ViewInfo struct {
	Name        string
	Start, End  int64
	Records     int64
	Density     float64
	Hits        int64
	Misses      int64
	FromEpoch   int64
	InvalidFrom int64
}

// ViewList carries the registered materialized views with usage and
// MVCC-validity counters.
type ViewList struct {
	Views []ViewInfo
}

func (*ViewList) Type() Type { return TViewList }
func (m *ViewList) encode(w *writer) {
	w.uvarint(uint64(len(m.Views)))
	for _, v := range m.Views {
		w.string(v.Name)
		w.varint(v.Start)
		w.varint(v.End)
		w.varint(v.Records)
		w.float(v.Density)
		w.varint(v.Hits)
		w.varint(v.Misses)
		w.varint(v.FromEpoch)
		w.varint(v.InvalidFrom)
	}
}
func (m *ViewList) decode(r *reader) {
	n := r.count("view", 1<<20)
	if r.err != nil {
		return
	}
	m.Views = make([]ViewInfo, n)
	for i := range m.Views {
		v := &m.Views[i]
		v.Name = r.string()
		v.Start = r.varint()
		v.End = r.varint()
		v.Records = r.varint()
		v.Density = r.float()
		v.Hits = r.varint()
		v.Misses = r.varint()
		v.FromEpoch = r.varint()
		v.InvalidFrom = r.varint()
	}
}

// Subscribe registers a standing query over the inclusive span
// [Start, End]. The server answers with SubAck (the subscription id,
// output schema and snapshot epoch) followed by an initial Delta
// carrying the full span's current content, then Ready. From then on,
// every base write whose delta halo intersects the query pushes a
// Delta frame — outside any request/response turn — until Unsubscribe
// or disconnect.
type Subscribe struct {
	SEQL       string
	Start, End int64
}

func (*Subscribe) Type() Type { return TSubscribe }
func (m *Subscribe) encode(w *writer) {
	w.string(m.SEQL)
	w.varint(m.Start)
	w.varint(m.End)
}
func (m *Subscribe) decode(r *reader) {
	m.SEQL = r.string()
	m.Start = r.varint()
	m.End = r.varint()
}

// Unsubscribe cancels a standing query on this connection. Response:
// Ack, Ready. Deltas already framed may still arrive before the Ack.
type Unsubscribe struct {
	SubID uint64
}

func (*Unsubscribe) Type() Type         { return TUnsubscribe }
func (m *Unsubscribe) encode(w *writer) { w.uvarint(m.SubID) }
func (m *Unsubscribe) decode(r *reader) { m.SubID = r.uvarint() }

// SubAck accepts a subscription: its connection-scoped id, the standing
// query's output schema, and the MVCC epoch of the initial snapshot.
type SubAck struct {
	SubID  uint64
	Epoch  int64
	Fields []seq.Field
}

func (*SubAck) Type() Type { return TSubAck }
func (m *SubAck) encode(w *writer) {
	w.uvarint(m.SubID)
	w.varint(m.Epoch)
	w.uvarint(uint64(len(m.Fields)))
	for _, f := range m.Fields {
		w.string(f.Name)
		w.byte(byte(f.Type))
	}
}
func (m *SubAck) decode(r *reader) {
	m.SubID = r.uvarint()
	m.Epoch = r.varint()
	n := r.count("field", 1<<16)
	if r.err != nil {
		return
	}
	m.Fields = make([]seq.Field, n)
	for i := range m.Fields {
		m.Fields[i].Name = r.string()
		m.Fields[i].Type = seq.Type(r.byte())
	}
}

// Delta is one epoch-stamped region replacement for a standing query:
// the subscriber's records over the inclusive region [Start, End] are
// now exactly Entries — positions inside the region absent from Entries
// no longer hold a record. Applying deltas in arrival order keeps a
// client's copy equal to the query's current result.
type Delta struct {
	SubID      uint64
	Epoch      int64
	Start, End int64
	Entries    []seq.Entry
}

func (*Delta) Type() Type { return TDelta }
func (m *Delta) encode(w *writer) {
	w.uvarint(m.SubID)
	w.varint(m.Epoch)
	w.varint(m.Start)
	w.varint(m.End)
	w.uvarint(uint64(len(m.Entries)))
	for _, e := range m.Entries {
		w.varint(e.Pos)
		w.record(e.Rec)
	}
}
func (m *Delta) decode(r *reader) {
	m.SubID = r.uvarint()
	m.Epoch = r.varint()
	m.Start = r.varint()
	m.End = r.varint()
	m.Entries = r.entries(nil, "delta entry")
}

// SplitDelta partitions one region replacement into Delta frames whose
// entry batches obey the same bounds as SplitRows, tiling [start, end]
// with contiguous sub-regions so each frame is itself a valid region
// replacement. Entries must lie inside the region in positional order.
// At least one frame is always produced: an empty region replacement
// (clearing the region) is meaningful.
func SplitDelta(subID uint64, epoch, start, end int64, entries []seq.Entry) []*Delta {
	batches := SplitRows(entries)
	if len(batches) <= 1 {
		return []*Delta{{SubID: subID, Epoch: epoch, Start: start, End: end, Entries: entries}}
	}
	out := make([]*Delta, 0, len(batches))
	lo := start
	for i, b := range batches {
		hi := end
		if i < len(batches)-1 {
			hi = b[len(b)-1].Pos
		}
		out = append(out, &Delta{SubID: subID, Epoch: epoch, Start: lo, End: hi, Entries: b})
		lo = hi + 1
	}
	return out
}

// ── framing ─────────────────────────────────────────────────────────

// writers recycles WriteMessage's frame buffers.
var writers = sync.Pool{New: func() any { return new(writer) }}

// WriteMessage frames and writes one message with a single Write: the
// length prefix is reserved ahead of the body in the same buffer.
func WriteMessage(out io.Writer, m Message) error {
	w := writers.Get().(*writer)
	w.buf = append(w.buf[:0], 0, 0, 0, 0, byte(m.Type()))
	m.encode(w)
	binary.BigEndian.PutUint32(w.buf, uint32(len(w.buf)-4))
	_, err := out.Write(w.buf)
	if cap(w.buf) <= maxKeptBuffer {
		writers.Put(w)
	}
	return err
}

// ReadMessage reads and decodes one frame. maxFrame <= 0 selects
// DefaultMaxFrame. A connection reading many frames uses a FrameReader,
// which reuses one buffer.
func ReadMessage(in io.Reader, maxFrame int) (Message, error) {
	return NewFrameReader(in, maxFrame).Read()
}

// FrameReader reads frames from one stream into a buffer it reuses, so a
// connection's reads allocate only what decoding keeps. Decoded messages
// never alias the buffer: strings are copied out of it.
type FrameReader struct {
	in  io.Reader
	max int
	hdr [4]byte
	buf []byte
}

// NewFrameReader reads frames from in, rejecting frames larger than
// maxFrame bytes (<= 0 selects DefaultMaxFrame) before allocating.
func NewFrameReader(in io.Reader, maxFrame int) *FrameReader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &FrameReader{in: in, max: maxFrame}
}

// next reads the next frame body (type byte + payload), valid until the
// following call.
func (fr *FrameReader) next() ([]byte, error) {
	if _, err := io.ReadFull(fr.in, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if n == 0 {
		return nil, fmt.Errorf("wire: empty frame")
	}
	if int(n) > fr.max {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, fr.max)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	buf := fr.buf[:n]
	if _, err := io.ReadFull(fr.in, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Read reads and decodes the next frame.
func (fr *FrameReader) Read() (Message, error) {
	body, err := fr.next()
	if err != nil {
		return nil, err
	}
	return Decode(body)
}

// Trim drops a buffer that grew past 1 MiB, so a one-off large frame
// is not kept for the life of the connection. Call it between turns.
func (fr *FrameReader) Trim() {
	if cap(fr.buf) > maxKeptBuffer {
		fr.buf = nil
	}
}

// Decode decodes one frame body (type byte + payload).
func Decode(frame []byte) (Message, error) {
	if len(frame) == 0 {
		return nil, fmt.Errorf("wire: empty frame")
	}
	t := Type(frame[0])
	var m Message
	for _, ti := range registry {
		if ti.Code == t {
			m = ti.New()
			break
		}
	}
	if m == nil {
		return nil, fmt.Errorf("wire: unknown message type 0x%02x", uint8(t))
	}
	r := &reader{buf: frame[1:]}
	m.decode(r)
	if r.err != nil {
		return nil, fmt.Errorf("wire: decode %s: %w", TypeName(t), r.err)
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("wire: decode %s: %d trailing bytes", TypeName(t), len(r.buf)-r.off)
	}
	return m, nil
}

// Encode frames one message body (type byte + payload), without the
// length prefix. The inverse of Decode; used by the conformance test.
func Encode(m Message) []byte {
	w := &writer{}
	w.byte(byte(m.Type()))
	m.encode(w)
	return w.buf
}

// ── payload primitives ──────────────────────────────────────────────

type writer struct {
	buf []byte
}

func (w *writer) byte(b byte)      { w.buf = append(w.buf, b) }
func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *writer) float(f float64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(f))
	w.buf = append(w.buf, b[:]...)
}
func (w *writer) string(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) value(v seq.Value) {
	w.byte(byte(v.T))
	switch v.T {
	case seq.TInt:
		w.varint(v.AsInt())
	case seq.TFloat:
		w.float(v.AsFloat())
	case seq.TString:
		w.string(v.AsStr())
	case seq.TBool:
		if v.AsBool() {
			w.byte(1)
		} else {
			w.byte(0)
		}
	}
}

// record encodes a record as a uvarint field count followed by tagged
// values; the Null record travels as count 0.
func (w *writer) record(rec seq.Record) {
	w.uvarint(uint64(len(rec)))
	for _, v := range rec {
		w.value(v)
	}
}

type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("truncated payload")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

func (r *reader) float() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("truncated float")
		return 0
	}
	bits := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return math.Float64frombits(bits)
}

// remaining is the unread byte count of the payload.
func (r *reader) remaining() int { return len(r.buf) - r.off }

// count decodes a uvarint element count, comparing in uint64 space
// before the int conversion so a hostile value can neither wrap negative
// nor drive an oversized allocation: the count must fit both the
// caller's limit and the unread payload (every element occupies at least
// one byte).
func (r *reader) count(what string, limit int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(limit) || v > uint64(r.remaining()) {
		r.fail("%s count %d out of range", what, v)
		return 0
	}
	return int(v)
}

func (r *reader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.remaining()) {
		r.fail("truncated string of %d bytes", n)
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *reader) value() seq.Value {
	t := seq.Type(r.byte())
	switch t {
	case seq.TInt:
		return seq.Int(r.varint())
	case seq.TFloat:
		return seq.Float(r.float())
	case seq.TString:
		return seq.Str(r.string())
	case seq.TBool:
		return seq.Bool(r.byte() != 0)
	default:
		r.fail("unknown value type %d", uint8(t))
		return seq.Value{}
	}
}

func (r *reader) record() seq.Record {
	n := r.count("record field", 1<<16)
	if r.err != nil || n == 0 {
		return nil // the Null record
	}
	rec := make(seq.Record, n)
	for i := range rec {
		rec[i] = r.value()
	}
	return rec
}
