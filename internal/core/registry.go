package core

import (
	"fmt"
	"sort"
)

// Registry is the system catalog: the registered platform drivers, their
// channels and conversions (forming the channel conversion graph), and the
// operator mapping registry. Plugging a new platform into the system is one
// Register call (extensibility is a first-class citizen: O(n), not O(nm)).
type Registry struct {
	drivers  map[string]Driver
	Mappings *MappingRegistry
	Graph    *ConversionGraph
}

// NewRegistry creates an empty registry with the platform-neutral channels
// pre-registered (driver collections and files exist independently of any
// platform).
func NewRegistry() *Registry {
	r := &Registry{
		drivers:  map[string]Driver{},
		Mappings: NewMappingRegistry(),
		Graph:    NewConversionGraph(),
	}
	r.Graph.AddChannel(CollectionChannel)
	r.Graph.AddChannel(FileChannel)
	return r
}

// Platform-neutral channel descriptors.
var (
	// CollectionChannel is an in-memory driver-side collection
	// (*SliceDataset payload): reusable, at rest.
	CollectionChannel = ChannelDescriptor{Name: "collection", Reusable: true, AtRest: true}
	// FileChannel is a local file of encoded quanta (path payload).
	FileChannel = ChannelDescriptor{Name: "file", Reusable: true, AtRest: true}
)

// Register plugs a platform driver into the system: its channels join the
// conversion graph, its conversions become edges, and its mappings join the
// mapping registry.
func (r *Registry) Register(d Driver) error {
	name := d.Name()
	if _, dup := r.drivers[name]; dup {
		return fmt.Errorf("core: platform %q already registered", name)
	}
	r.drivers[name] = d
	for _, cd := range d.ChannelDescriptors() {
		r.Graph.AddChannel(cd)
	}
	for _, cv := range d.Conversions() {
		if err := r.Graph.AddConversion(cv); err != nil {
			return fmt.Errorf("core: platform %q: %w", name, err)
		}
	}
	d.RegisterMappings(r.Mappings)
	return nil
}

// Driver returns the driver registered under name.
func (r *Registry) Driver(name string) (Driver, error) {
	d, ok := r.drivers[name]
	if !ok {
		return nil, fmt.Errorf("core: no platform %q registered", name)
	}
	return d, nil
}

// Drivers returns all registered drivers sorted by name.
func (r *Registry) Drivers() []Driver {
	names := make([]string, 0, len(r.drivers))
	for n := range r.drivers {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Driver, len(names))
	for i, n := range names {
		out[i] = r.drivers[n]
	}
	return out
}

// StartupCostMs returns a platform's start-up quote (see StartupCoster),
// zero when the driver declares none.
func (r *Registry) StartupCostMs(platform string) (bootMs, stageMs float64) {
	if sc, ok := r.drivers[platform].(StartupCoster); ok {
		return sc.StartupCostMs()
	}
	return 0, 0
}
