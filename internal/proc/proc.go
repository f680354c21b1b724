// Package proc is the server-side procedure subsystem: named call-processing
// programs written in the internal/isa assembly, PECOS-instrumented at load
// time, and executed against the live controller database on behalf of wire
// clients.
//
// This is the layer that joins the paper's two halves under production
// traffic. The database-audit half (internal/audit over internal/memdb)
// guards the data; the control-flow half (internal/pecos over internal/vm)
// guards the programs; a registered procedure runs with both active at once:
// every control-flow instruction executes behind its assertion block, and
// every mutation is staged so that a PECOS violation aborts the procedure
// before a corrupt write ever reaches the region.
//
// The registry keeps two copies of each program's text: the pristine
// instrumented image and the live segment the engine executes (and the
// injector corrupts). Reload — the recovery action behind the audit ladder's
// new control-flow class — copies pristine over live, which is the paper's
// "reload from permanent storage" applied to program text instead of data.
package proc

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
	"repro/internal/pecos"
)

// MaxNameLen bounds procedure names (they ride in wire request details).
const MaxNameLen = 64

// Procedure is one registered, instrumented program. The counters are
// plain fields because only the server's turn holder touches the registry,
// the same single-writer discipline as memdb.DB itself.
type Procedure struct {
	Name    string
	Source  string
	Version int // bumped on every load and reload

	// Execs/Violations/Faults count executions by outcome; Reloads counts
	// clean-text recoveries.
	Execs      uint64
	Violations uint64
	Faults     uint64
	Reloads    uint64

	pristine []uint32 // instrumented image, never mutated after load
	text     []uint32 // live segment: executed by the engine, corrupted by the injector
	ins      *pecos.Instrumented
}

// Text returns the live text segment — the injection target. Flips applied
// here are visible to every subsequent execution until Reload.
func (p *Procedure) Text() []uint32 { return p.text }

// Ins returns the instrumentation map (assertion PCs, CFI addresses).
func (p *Procedure) Ins() *pecos.Instrumented { return p.ins }

// Words returns the instrumented text length.
func (p *Procedure) Words() int { return len(p.text) }

// Blocks returns the number of assertion blocks embedded at load.
func (p *Procedure) Blocks() int { return p.ins.Blocks }

// Damaged reports whether the live text diverges from the pristine image.
func (p *Procedure) Damaged() bool {
	for i, w := range p.text {
		if w != p.pristine[i] {
			return true
		}
	}
	return false
}

// ControlWords lists the addresses of the procedure's control structure:
// every assertion header, its valid-target words, and every CFI word. This
// is the directed-injection target set — a flip here attacks exactly the
// control flow PECOS guards, the live-load analogue of the offline
// campaign's CFIAddrs targeting.
func (p *Procedure) ControlWords() []uint32 {
	seen := make(map[uint32]bool)
	var out []uint32
	add := func(a uint32) {
		if int(a) < len(p.pristine) && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for a := range p.ins.AssertPCs {
		in, err := isa.Decode(p.pristine[a])
		if err != nil {
			continue
		}
		for i := uint32(0); i <= in.Imm16; i++ {
			add(a + i)
		}
	}
	for _, a := range p.ins.CFIAddrs {
		add(a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CriticalWord returns the address of a valid-target word whose corruption
// is guaranteed to trip an assertion on the next execution through its
// block: the word matching the protected CFI's static target (for a direct
// CFI the runtime target always equals the embedded constant, so once the
// matching word differs, no target word can zero the assertion product).
// Used by targeted-injection tests; ok is false when the program has no
// such block.
func (p *Procedure) CriticalWord() (uint32, bool) {
	asserts := make([]uint32, 0, len(p.ins.AssertPCs))
	for a := range p.ins.AssertPCs {
		asserts = append(asserts, a)
	}
	sort.Slice(asserts, func(i, j int) bool { return asserts[i] < asserts[j] })
	for _, a := range asserts {
		hdr, err := isa.Decode(p.pristine[a])
		if err != nil {
			continue
		}
		n := hdr.Imm16
		cfiAddr := a + 1 + n
		if int(cfiAddr) >= len(p.pristine) {
			continue
		}
		cfi, err := isa.Decode(p.pristine[cfiAddr])
		if err != nil {
			continue
		}
		switch cfi.Op {
		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpJmp, isa.OpCall:
		default:
			continue // runtime-computed target: no single word is decisive
		}
		xout := cfi.Imm16
		match, others := -1, 0
		for i := uint32(0); i < n; i++ {
			if p.pristine[a+1+i] == xout {
				if match < 0 {
					match = int(i)
				} else {
					others++ // degenerate: two words match the target
				}
			}
		}
		if match >= 0 && others == 0 {
			return a + 1 + uint32(match), true
		}
	}
	return 0, false
}

// Registry holds the named procedures. Not safe for concurrent use — it is
// owned by the server's turn holder, exactly like the database region.
type Registry struct {
	procs map[string]*Procedure
	order []string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{procs: make(map[string]*Procedure)}
}

// Load assembles, instruments, and registers source under name, replacing
// any existing registration (its counters reset: a new program is a new
// population).
func (r *Registry) Load(name, source string) (*Procedure, error) {
	if name == "" || len(name) > MaxNameLen || strings.ContainsAny(name, " \t\r\n") {
		return nil, fmt.Errorf("proc: invalid procedure name %q", name)
	}
	prog, err := isa.AssembleWithInfo(source)
	if err != nil {
		return nil, fmt.Errorf("proc: %s: %w", name, err)
	}
	ins, err := pecos.Instrument(prog, pecos.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("proc: %s: %w", name, err)
	}
	p := &Procedure{
		Name:     name,
		Source:   source,
		Version:  1,
		pristine: ins.Text,
		text:     append([]uint32(nil), ins.Text...),
		ins:      ins,
	}
	if old, exists := r.procs[name]; exists {
		p.Version = old.Version + 1
	} else {
		r.order = append(r.order, name)
	}
	r.procs[name] = p
	return p, nil
}

// Get returns the named procedure, or nil.
func (r *Registry) Get(name string) *Procedure { return r.procs[name] }

// Len returns the number of registered procedures.
func (r *Registry) Len() int { return len(r.order) }

// Names lists registered procedure names in registration order.
func (r *Registry) Names() []string { return r.order }

// Reload restores the named procedure's live text from its pristine image —
// the recovery action for a control-flow finding. Reports whether the name
// was registered.
func (r *Registry) Reload(name string) bool {
	p := r.procs[name]
	if p == nil {
		return false
	}
	copy(p.text, p.pristine)
	p.Reloads++
	p.Version++
	return true
}

// Info is the introspection record served by the PROC list op.
type Info struct {
	Name       string `json:"name"`
	Words      int    `json:"words"`
	Blocks     int    `json:"blocks"`
	CFIs       int    `json:"cfis"`
	Version    int    `json:"version"`
	Execs      uint64 `json:"execs"`
	Violations uint64 `json:"violations"`
	Faults     uint64 `json:"faults"`
	Reloads    uint64 `json:"reloads"`
}

// Infos snapshots every registered procedure, in registration order.
func (r *Registry) Infos() []Info {
	out := make([]Info, 0, len(r.order))
	for _, name := range r.order {
		p := r.procs[name]
		out = append(out, Info{
			Name: p.Name, Words: p.Words(), Blocks: p.Blocks(),
			CFIs: len(p.ins.CFIAddrs), Version: p.Version,
			Execs: p.Execs, Violations: p.Violations,
			Faults: p.Faults, Reloads: p.Reloads,
		})
	}
	return out
}

// EncodeInfos renders an Info list as the JSON document the wire op carries.
func EncodeInfos(infos []Info) ([]byte, error) { return json.Marshal(infos) }

// DecodeInfos parses the PROC list JSON document.
func DecodeInfos(data []byte) ([]Info, error) {
	var out []Info
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return out, nil
}
