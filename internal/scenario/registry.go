package scenario

import (
	"fmt"
	"sort"
	"sync"
)

// The registry maps scenario names to their specs. Registration normally
// happens from init (the built-in catalogue) but is safe at any time.
var registry = struct {
	sync.RWMutex
	specs map[string]Spec
}{specs: make(map[string]Spec)}

// Register adds a scenario to the registry. The spec must validate and
// the name must be unused; it is stored in normalized form, so Get hands
// out specs with every default made explicit.
func Register(s Spec) error {
	if s.Name == "" {
		return fmt.Errorf("scenario: registering a spec without a name")
	}
	norm, err := s.Normalized()
	if err != nil {
		return err
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.specs[s.Name]; dup {
		return fmt.Errorf("scenario: %q already registered", s.Name)
	}
	registry.specs[s.Name] = norm
	return nil
}

// MustRegister is Register for init-time catalogue entries.
func MustRegister(s Spec) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Get returns a copy of the named scenario's spec.
func Get(name string) (Spec, bool) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.specs[name]
	if !ok {
		return Spec{}, false
	}
	return s.clone(), true
}

// Names lists the registered scenario names in sorted order.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.specs))
	for name := range registry.specs { // order-free: the keys are sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Specs returns copies of all registered specs in sorted-name order.
func Specs() []Spec {
	names := Names()
	out := make([]Spec, 0, len(names))
	for _, name := range names {
		s, _ := Get(name)
		out = append(out, s)
	}
	return out
}
