package lint

import "sort"

// CalleeFactKeys lists the rows of calleeFacts, sorted.
func CalleeFactKeys() []string {
	keys := make([]string, 0, len(calleeFacts))
	for k := range calleeFacts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WithoutCalleeFact runs f with one row of calleeFacts dropped.
func WithoutCalleeFact(key string, f func()) {
	fact := calleeFacts[key]
	delete(calleeFacts, key)
	defer func() { calleeFacts[key] = fact }()
	f()
}
